package kernel

import (
	"sync/atomic"

	"epcm/internal/sim"
)

// casTLB is the lock-free software TLB the concurrent scheduler installs:
// a set-associative array of packed atomic words. The serial scheduler keeps
// the paper's fully-associative R3000 model (tlb.go) so the golden output is
// untouched.
//
// Each entry is one uint64: a presence bit, 23 bits of segment ID, and 40
// bits of page number. Install publishes the whole word with a store (or a
// CAS into an empty way); invalidate CASes the word back to zero — no
// entry is ever half-visible, so readers take no locks and free no memory
// (nothing to reclaim: words, not pointers). Keys outside the packable
// range are simply uncacheable: lookups miss and installs are no-ops,
// which is valid TLB behaviour (the mapping table still serves them).
//
// Like the hardware it models, the TLB is set-associative here rather than
// fully associative: a fully associative probe is a 64-entry scan per
// access, unacceptable on a lock-free hot path. Sets of four ways with a
// per-set round-robin rotor keep the probe O(4) while staying within the
// configured entry budget.
type casTLB struct {
	sets  []casTLBSet
	shift uint
	// super is the superpage side: a small fully-associative array of
	// packed wide ways, each covering 2^order pages (superpage.go). One
	// installed way gives an extent's worth of reach. superSeen gates the
	// scan monotonically, so with superpages off (always zero) a lookup
	// costs one extra relaxed load on the miss path only.
	super     [casTLBSuperWays]atomic.Uint64
	superRot  atomic.Uint32
	superSeen atomic.Uint32
	// Striped by the key's segment, as in casTable.
	hits, misses sim.Striped
}

const casTLBWays = 4

type casTLBSet struct {
	ways [casTLBWays]atomic.Uint64
	rot  atomic.Uint32 // round-robin victim rotor
	_    [28]byte
}

const (
	casTLBPresent  = uint64(1) << 63
	casTLBSegBits  = 23
	casTLBPageBits = 40
)

// Superpage-way packing: present bit, 3 bits of order (60..62), 20 bits of
// segment (40..59 — narrower than a base way's 23, traded for the order
// field; segment IDs are small sequential integers), 40 bits of base page.
const (
	casTLBSuperWays    = 16
	casTLBOrderShift   = 60
	casTLBSuperSegBits = casTLBOrderShift - casTLBPageBits
)

// casPackOrder packs a word covering 2^order pages from base k.page — a
// superpage way here, any entry of the CAS mapping table (castable.go, order
// 0 for a base page) — reporting false for keys outside the representable
// range.
func casPackOrder(k mapKey, order uint8) (uint64, bool) {
	if uint64(k.seg) >= 1<<casTLBSuperSegBits || k.page < 0 || k.page >= 1<<casTLBPageBits {
		return 0, false
	}
	return casTLBPresent | uint64(order)<<casTLBOrderShift |
		uint64(k.seg)<<casTLBPageBits | uint64(k.page), true
}

// casOrderSeg is the segment of a word casPackOrder built.
func casOrderSeg(w uint64) SegID { return SegID(w >> casTLBPageBits & (1<<casTLBSuperSegBits - 1)) }

func newCASTLB(entries int) *casTLB {
	if entries < casTLBWays {
		entries = casTLBWays
	}
	nsets := 1
	for nsets*casTLBWays < entries {
		nsets <<= 1
	}
	return &casTLB{sets: make([]casTLBSet, nsets), shift: hashShift(nsets)}
}

// casTLBPack packs a key into one word, reporting false for keys outside
// the representable range (those stay uncacheable).
func casTLBPack(k mapKey) (uint64, bool) {
	if uint64(k.seg) >= 1<<casTLBSegBits || k.page < 0 || k.page >= 1<<casTLBPageBits {
		return 0, false
	}
	return casTLBPresent | uint64(k.seg)<<casTLBPageBits | uint64(k.page), true
}

func (t *casTLB) set(w uint64) *casTLBSet {
	return &t.sets[w*0x9e3779b97f4a7c15>>t.shift]
}

func (t *casTLB) lookup(k mapKey) bool {
	w, ok := casTLBPack(k)
	if !ok {
		t.misses.Add(uint64(k.seg), 1)
		return false
	}
	s := t.set(w)
	for i := range s.ways {
		if s.ways[i].Load() == w {
			t.hits.Add(uint64(k.seg), 1)
			return true
		}
	}
	if t.superSeen.Load() != 0 {
		for i := range t.super {
			sw := t.super[i].Load()
			if sw == 0 {
				continue
			}
			o := uint8(sw >> casTLBOrderShift & 7)
			want, ok := casPackOrder(mapKey{k.seg, extentBase(k.page, int(o))}, o)
			if ok && want == sw {
				t.hits.Add(uint64(k.seg), 1)
				return true
			}
		}
	}
	t.misses.Add(uint64(k.seg), 1)
	return false
}

// installSpan publishes a superpage way for the extent at k: resident
// check, then empty-way CAS, then round-robin eviction — the same
// discipline as the base install.
func (t *casTLB) installSpan(k mapKey, order uint8) {
	w, ok := casPackOrder(k, order)
	if !ok {
		return
	}
	t.superSeen.Store(1)
	for i := range t.super {
		switch v := t.super[i].Load(); {
		case v == w:
			return
		case v == 0 && t.super[i].CompareAndSwap(0, w):
			return
		}
	}
	t.super[t.superRot.Add(1)&(casTLBSuperWays-1)].Store(w)
}

// invalidateSpan withdraws a superpage way (extent demoted).
func (t *casTLB) invalidateSpan(k mapKey, order uint8) {
	w, ok := casPackOrder(k, order)
	if !ok {
		return
	}
	for i := range t.super {
		if t.super[i].Load() == w {
			t.super[i].CompareAndSwap(w, 0)
			return
		}
	}
}

func (t *casTLB) install(k mapKey) {
	w, ok := casTLBPack(k)
	if !ok {
		return
	}
	s := t.set(w)
	// One pass: resident check and empty-way claim together. The CAS is
	// attempted only on a way observed empty, so a full set (the steady
	// state under any working set larger than the TLB) costs four plain
	// loads and one store, not four failed compare-and-swaps.
	for i := range s.ways {
		switch v := s.ways[i].Load(); {
		case v == w:
			return // already resident
		case v == 0 && s.ways[i].CompareAndSwap(0, w):
			return
		}
	}
	s.ways[s.rot.Add(1)&(casTLBWays-1)].Store(w)
}

// installRun is install of the n keys (k.seg, k.page+i) in turn: a set's
// rotor moves only with its own installs, so there is no run shape to use.
func (t *casTLB) installRun(k mapKey, n int64) {
	for i := int64(0); i < n; i++ {
		t.install(mapKey{k.seg, k.page + i})
	}
}

func (t *casTLB) invalidate(k mapKey) {
	w, ok := casTLBPack(k)
	if !ok {
		return
	}
	s := t.set(w)
	for i := range s.ways {
		if s.ways[i].Load() == w {
			s.ways[i].CompareAndSwap(w, 0)
			return
		}
	}
}

func (t *casTLB) invalidateSegment(seg SegID) {
	for si := range t.sets {
		s := &t.sets[si]
		for i := range s.ways {
			w := s.ways[i].Load()
			if w != 0 && SegID(w>>casTLBPageBits&(1<<casTLBSegBits-1)) == seg {
				s.ways[i].CompareAndSwap(w, 0)
			}
		}
	}
	if t.superSeen.Load() != 0 {
		for i := range t.super {
			w := t.super[i].Load()
			if w != 0 && casOrderSeg(w) == seg {
				t.super[i].CompareAndSwap(w, 0)
			}
		}
	}
}

func (t *casTLB) stats() (hits, misses int64) { return t.hits.Load(), t.misses.Load() }

func (t *casTLB) resetStats() {
	t.hits.Store(0)
	t.misses.Store(0)
}
