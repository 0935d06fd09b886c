package sim

import "sync/atomic"

// The striped counter the virtual clock and the kernel's activity stats, the
// mapping table's hit/miss counts among them, are built on (DESIGN §11).
// The rule: a counter the fault path writes is striped by WHO charges, never
// by what is charged. Goroutines that can fault concurrently work on their
// own managers' segments, so the segment ID of the page a charge concerns
// names the charger and is the key callers pass: two managers on two cores
// write different cache lines. A key derived from the charged object (a hash
// index, say) spreads one core's writes over every stripe and buys nothing.
// Placement never affects a sum, so serial totals do not depend on the keys.

// Stripes is the stripe count. Four lines separate up to four concurrently
// charging keys and keep Load — the clock's Now, which the DES reads several
// times per event — to four loads that inline; at eight, Table 4 ran 4 %
// slower. A power of two: keys select a stripe by masking.
const Stripes = 4

// stripe is one word alone on its cache line (adjacent words would pack
// eight to a line and false-share).
type stripe struct {
	n int64
	_ [56]byte
}

// Striped is one logical counter split across Stripes cache lines, because a
// single word bumped from several cores ping-pongs even alone on its line.
// The zero value reads zero and is unshared. The leading line keeps the
// first stripe off whatever precedes it and holds the shared flag, which
// every Add reads, 64 bytes clear of any stripe's word (DESIGN §11).
type Striped struct {
	shared bool
	_      [63]byte
	c      [Stripes]stripe
}

// Until Share, Add is a plain add to stripe 0 for one charger at a time (a
// serial kernel, a DES shard); Share makes every later Add atomic on its
// key's stripe, for good. Call it before a second charger starts: -race
// catches one that does not. Shared reports whether it has been called.
func (s *Striped) Share()       { s.shared = true }
func (s *Striped) Shared() bool { return s.shared }

// Add charges d to the stripe key selects once shared, to stripe 0 before.
func (s *Striped) Add(key uint64, d int64) {
	if s.shared {
		atomic.AddInt64(&s.c[key&(Stripes-1)].n, d)
		return
	}
	s.c[0].n += d
}

// Load sums the stripes. Exact, but not a snapshot under concurrent Adds
// (neither is a single atomic read of a counter others are bumping); against
// Adds of non-negative amounts, successive Loads never decrease. Unrolled:
// independent loads overlap, at about half the cost of the loop.
func (s *Striped) Load() int64 {
	c := &s.c
	return atomic.LoadInt64(&c[0].n) + atomic.LoadInt64(&c[1].n) +
		atomic.LoadInt64(&c[2].n) + atomic.LoadInt64(&c[3].n)
}

// Store sets the counter to v (stripe 0 takes the value, the rest zero). It
// is the owner's call: Adds racing with it may land on either side.
func (s *Striped) Store(v int64) {
	atomic.StoreInt64(&s.c[0].n, v)
	for i := 1; i < Stripes; i++ {
		atomic.StoreInt64(&s.c[i].n, 0)
	}
}
