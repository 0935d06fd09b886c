package sim

import "sync/atomic"

// The striped counter the virtual clock, the kernel's activity stats and the
// CAS mapping structures' hit/miss counters are all built on (DESIGN §11).
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

// Padded is an atomic counter alone on its cache line (adjacent atomic.Int64
// words would pack eight to a line and false-share).
type Padded struct {
	atomic.Int64
	_ [56]byte
}

// Striped is one logical counter split across Stripes cache lines, because a
// single word bumped from several cores ping-pongs even alone on its line.
// The zero value reads zero. Each Padded keeps what follows it off its
// counter's line; the leading pad does the same for whatever precedes the
// first stripe in an enclosing struct (8-byte alignment makes 56 bytes
// enough), so a Striped can sit next to fields the fault path reads.
type Striped struct {
	_ [56]byte
	c [Stripes]Padded
}

// Add charges d to the stripe key selects.
func (s *Striped) Add(key uint64, d int64) {
	s.c[key&(Stripes-1)].Int64.Add(d)
}

// Load sums the stripes. Exact, but not a snapshot under concurrent Adds
// (neither is a single atomic read of a counter others are bumping); against
// Adds of non-negative amounts, successive Loads never decrease. Unrolled:
// independent loads overlap, at about half the cost of the loop.
func (s *Striped) Load() int64 {
	c := &s.c
	return c[0].Load() + c[1].Load() + c[2].Load() + c[3].Load()
}

// Store sets the counter to v (stripe 0 takes the value, the rest zero). It
// is the owner's call: Adds racing with it may land on either side.
func (s *Striped) Store(v int64) {
	s.c[0].Int64.Store(v)
	for i := 1; i < Stripes; i++ {
		s.c[i].Int64.Store(0)
	}
}
