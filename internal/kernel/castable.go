package kernel

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"epcm/internal/sim"
)

// casTable is the lock-free mapping table the concurrent scheduler installs
// (SetScheduler): open addressing over packed atomic words, with CAS
// publication and tombstoned removal. The serial scheduler keeps the
// paper's unlocked mappingTable, so the golden output is untouched.
//
// Layout. Each slot is one uint64 packed by casPackOrder: present bit, 3
// bits of span order (0 for a base-page entry), 20 bits of segment, 40 bits
// of page. Zero is an empty slot and casTombstone a removed one; neither has
// the present bit, so neither can equal a key. A key's home slot is the top bits of the
// Fibonacci hash of its (span-tagged) mapKey; a lookup probes a short
// window from home, stopping at the first empty slot. Removal CASes the
// word to the tombstone — never back to zero — so the stop-at-zero
// invariant survives concurrent removals: a key, once placed, is never
// beyond the first zero of its window, because inserts choose the first
// zero-or-tombstone slot and zeros never reappear. Keys outside the packable
// range are uncacheable: lookups miss, insert and remove are no-ops, and the
// segment's page index serves them.
//
// Concurrency contract. A slot is a value, not a reference: nothing is
// dereferenced, so readers pin nothing and writers reclaim nothing, and a
// slot that changed and changed back between a load and a CAS (ABA) still
// means exactly what the CAS assumed. Linearizable per-key behaviour
// additionally relies on the kernel's existing locking: every table
// operation for a given key happens under that key's segment lock, so each
// key has one writer at a time, while operations on different keys race
// freely. Like the paper's table this is a cache, not the truth: a full
// probe window displaces the home occupant (drops), and misses fall back to
// the segment's page index.
type casTable struct {
	slots  []atomic.Uint64
	mask   uint64
	shift  uint
	window int
	// spanSeen is a monotonic bitmask of superpage orders ever cached as
	// span entries (superpage.go). Zero — always, with superpages off —
	// makes lookup's span probing one relaxed load, so the concurrent
	// golden modes see the exact pre-extent probe sequence.
	spanSeen atomic.Uint32
	// Striped by the key's segment, like every fault-path counter.
	hits, misses, spills, drops sim.Striped
}

// casTombstone marks a slot whose key was removed.
const casTombstone = uint64(1)

// casProbeWindow bounds the probe distance from a key's home slot, like
// hashOverflow bounds the paper table's overflow scan.
const casProbeWindow = 8

// Slot packing: present bit (63), 3 bits of order (60..62), 20 bits of
// segment (40..59; segment IDs are small sequential integers), 40 bits of
// base page.
const (
	casPresent    = uint64(1) << 63
	casPageBits   = 40
	casOrderShift = 60
	casSegBits    = casOrderShift - casPageBits
)

// casPackOrder packs the slot word of the entry covering 2^order pages from
// base k.page (order 0 for a base page), reporting false for keys outside
// the representable range.
func casPackOrder(k mapKey, order uint8) (uint64, bool) {
	if uint64(k.seg) >= 1<<casSegBits || k.page < 0 || k.page >= 1<<casPageBits {
		return 0, false
	}
	return casPresent | uint64(order)<<casOrderShift |
		uint64(k.seg)<<casPageBits | uint64(k.page), true
}

// casOrderSeg is the segment of a word casPackOrder built.
func casOrderSeg(w uint64) SegID { return SegID(w >> casPageBits & (1<<casSegBits - 1)) }

func newCASTableSized(slots int) *casTable {
	if slots <= 0 || slots&(slots-1) != 0 {
		panic(fmt.Sprintf("kernel: CAS table size %d not a power of two", slots))
	}
	return &casTable{
		slots:  make([]atomic.Uint64, slots),
		mask:   uint64(slots - 1),
		shift:  hashShift(slots),
		window: min(casProbeWindow, slots),
	}
}

// hashShift is the right shift that leaves the top log2(n) bits of a 64-bit
// Fibonacci hash: an index into a table of n (a power of two) slots.
func hashShift(n int) uint { return uint(64 - bits.TrailingZeros(uint(n))) }

func casHash(k mapKey) uint64 {
	h := uint64(k.seg)<<40 ^ uint64(k.page)
	return h * 0x9e3779b97f4a7c15
}

// casKey packs the entry of the given span order based at k (order 0: the
// base-page entry of k itself) and hashes the mapKey the serial table files
// it under, so both tables give every entry the same home.
func casKey(k mapKey, order uint8) (w, h uint64, ok bool) {
	w, ok = casPackOrder(k, order)
	return w, casHash(spanMapKey(k, int(order))), ok
}

// find scans the window of hash h for the slot holding word w, or nil.
// Stats are the caller's job, so span probes do not double-count.
func (t *casTable) find(w, h uint64) *atomic.Uint64 {
	home := h >> t.shift
	for i := 0; i < t.window; i++ {
		s := &t.slots[(home+uint64(i))&t.mask]
		switch s.Load() {
		case w:
			return s
		case 0:
			return nil
		}
	}
	return nil
}

func (t *casTable) lookup(k mapKey) bool {
	w, h, ok := casKey(k, 0)
	if !ok {
		t.misses.Add(uint64(k.seg), 1)
		return false
	}
	if t.find(w, h) != nil {
		t.hits.Add(uint64(k.seg), 1)
		return true
	}
	// Exact miss: probe the span key of every live extent order, so one
	// cached span entry answers for all 2^order pages it covers.
	if m := t.spanSeen.Load(); m != 0 {
		for o := 1; o <= MaxExtentOrder; o++ {
			if m&(1<<uint(o)) == 0 {
				continue
			}
			sw, sh, _ := casKey(mapKey{k.seg, extentBase(k.page, o)}, uint8(o))
			if t.find(sw, sh) != nil {
				t.hits.Add(uint64(k.seg), 1)
				return true
			}
		}
	}
	t.misses.Add(uint64(k.seg), 1)
	return false
}

// insertSpan caches one entry covering a whole extent (see superpage.go:
// span hits only report presence; flags and frames always come from the
// page store). Publication order matters for readers of other segments:
// the order bit must be visible before the span entry can be found, so it
// is set first.
func (t *casTable) insertSpan(k mapKey, order uint8) {
	if _, ok := casPackOrder(k, order); !ok {
		return
	}
	for {
		m := t.spanSeen.Load()
		if m&(1<<uint(order)) != 0 || t.spanSeen.CompareAndSwap(m, m|1<<uint(order)) {
			break
		}
	}
	t.put(k, order)
}

// removeSpan withdraws a span entry (extent demoted).
func (t *casTable) removeSpan(k mapKey, order uint8) { t.drop(k, order) }

func (t *casTable) insert(k mapKey) { t.put(k, 0) }

func (t *casTable) remove(k mapKey) { t.drop(k, 0) }

// put caches the order-tagged entry of k, a no-op for an uncacheable key.
func (t *casTable) put(k mapKey, order uint8) {
	w, h, ok := casKey(k, order)
	if !ok {
		return
	}
	home := h >> t.shift
	for {
		// One scan finds either the key already cached (nothing to do) or
		// the first free slot (zero or tombstone) in the window.
		var free *atomic.Uint64
		freeOff, freeSaw := -1, uint64(0)
		for i := 0; i < t.window; i++ {
			s := &t.slots[(home+uint64(i))&t.mask]
			v := s.Load()
			if v == w {
				return
			}
			if (v == 0 || v == casTombstone) && freeOff < 0 {
				free, freeOff, freeSaw = s, i, v
			}
			if v == 0 {
				break
			}
		}
		if freeOff >= 0 {
			if !free.CompareAndSwap(freeSaw, w) {
				continue // another key claimed the slot; rescan
			}
			if freeOff > 0 {
				t.spills.Add(uint64(k.seg), 1)
			}
			return
		}
		// Window full of live entries for other keys: displace the home
		// occupant, as the paper table drops on overflow exhaustion. The
		// table is a cache — the victim's mapping survives in its segment.
		victim := t.slots[home].Load()
		if victim == 0 || victim == casTombstone {
			continue // freed underneath us; the rescan will use it
		}
		if t.slots[home].CompareAndSwap(victim, w) {
			t.drops.Add(uint64(k.seg), 1)
			return
		}
	}
}

// drop tombstones the slot of k's order-tagged entry. A failed CAS means
// another key's insert displaced it first; either way the key — which only
// its single writer, the caller, could have put back — is gone.
func (t *casTable) drop(k mapKey, order uint8) {
	if w, h, ok := casKey(k, order); ok {
		if s := t.find(w, h); s != nil {
			s.CompareAndSwap(w, casTombstone)
		}
	}
}

func (t *casTable) removeSegment(seg SegID) {
	for i := range t.slots {
		s := &t.slots[i]
		for {
			v := s.Load()
			if v&casPresent == 0 || casOrderSeg(v) != seg || s.CompareAndSwap(v, casTombstone) {
				break
			}
		}
	}
}

func (t *casTable) stats() (hits, misses, spills, drops int64) {
	return t.hits.Load(), t.misses.Load(), t.spills.Load(), t.drops.Load()
}

func (t *casTable) resetStats() {
	t.hits.Store(0)
	t.misses.Store(0)
	t.spills.Store(0)
	t.drops.Store(0)
}

func (t *casTable) clone() mapper {
	c := newCASTableSized(len(t.slots))
	c.restore(t)
	return c
}

func (t *casTable) restore(from mapper) {
	f := from.(*casTable)
	for i := range t.slots {
		t.slots[i].Store(f.slots[i].Load())
	}
	t.spanSeen.Store(f.spanSeen.Load())
	t.hits.Store(f.hits.Load())
	t.misses.Store(f.misses.Load())
	t.spills.Store(f.spills.Load())
	t.drops.Store(f.drops.Load())
}
