package kernel

// translator is the TLB surface the kernel uses; implemented by the R3000
// tlb (serial) and the lock-free casTLB (concurrent). Span methods as on
// mapper.
type translator interface {
	lookup(k mapKey) bool
	install(k mapKey)
	invalidate(k mapKey)
	invalidateSegment(seg SegID)
	installSpan(k mapKey, order uint8)
	invalidateSpan(k mapKey, order uint8)
	stats() (hits, misses int64)
	resetStats()
}

// tlb models the R3000's 64-entry fully-associative TLB. The paper notes
// that "simple TLB misses are handled by the kernel" — a miss that finds the
// translation in the mapping hash table costs only a kernel refill; only a
// true mapping miss escalates to the segment walk and, if the page is not
// present, a fault to the manager.
//
// Replacement is round-robin, which is deterministic (the real R3000 used a
// hardware random register; determinism matters more here than fidelity of
// the replacement index distribution).
type tlb struct {
	entries []tlbEntry
	next    int
	// spans are the superpage ways: each valid span covers 2^order pages
	// from its base. nil (always, with superpages off) so the default
	// lookup shape — and thus the golden hit/miss counts — is untouched.
	spans    []tlbSpan
	spanNext int
	hits     int64
	misses   int64
}

type tlbEntry struct {
	key   mapKey
	valid bool
}

type tlbSpan struct {
	key   mapKey // extent base page
	order uint8
	valid bool
}

// tlbSpanWays bounds the serial TLB's superpage ways (the R4000-class
// machines that had superpage TLBs gave them a handful of dedicated
// entries; 8 wide ways of up to 64 pages each is 512 pages of reach).
const tlbSpanWays = 8

func newTLB(size int) *tlb {
	return &tlb{entries: make([]tlbEntry, size)}
}

// lookup reports whether the translation for k is cached, either exactly
// or through a superpage way covering it.
func (t *tlb) lookup(k mapKey) bool {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].key == k {
			t.hits++
			return true
		}
	}
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.valid && sp.key.seg == k.seg && sp.key.page == extentBase(k.page, int(sp.order)) {
			t.hits++
			return true
		}
	}
	t.misses++
	return false
}

// installSpan caches a superpage way for the extent at k of the given
// order, evicting round-robin among the span ways when full.
func (t *tlb) installSpan(k mapKey, order uint8) {
	for i := range t.spans {
		if t.spans[i].valid && t.spans[i].key == k && t.spans[i].order == order {
			return
		}
	}
	ns := tlbSpan{key: k, order: order, valid: true}
	for i := range t.spans {
		if !t.spans[i].valid {
			t.spans[i] = ns
			return
		}
	}
	if len(t.spans) < tlbSpanWays {
		t.spans = append(t.spans, ns)
		return
	}
	t.spans[t.spanNext] = ns
	t.spanNext = (t.spanNext + 1) % tlbSpanWays
}

// invalidateSpan removes a superpage way (extent demoted).
func (t *tlb) invalidateSpan(k mapKey, order uint8) {
	for i := range t.spans {
		if t.spans[i].valid && t.spans[i].key == k && t.spans[i].order == order {
			t.spans[i].valid = false
		}
	}
}

// install caches a translation, evicting round-robin.
func (t *tlb) install(k mapKey) {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].key == k {
			return
		}
	}
	t.entries[t.next] = tlbEntry{key: k, valid: true}
	t.next = (t.next + 1) % len(t.entries)
}

// invalidate removes a cached translation (page migrated, unmapped, or
// protection changed).
func (t *tlb) invalidate(k mapKey) {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].key == k {
			t.entries[i].valid = false
		}
	}
}

// stats reads the hit/miss counters; resetStats zeroes them. Kernel.Stats
// and Kernel.ResetStats use this pair exclusively.
func (t *tlb) stats() (hits, misses int64) { return t.hits, t.misses }

func (t *tlb) resetStats() { t.hits, t.misses = 0, 0 }

// invalidateSegment flushes all translations of one segment, superpage
// ways included.
func (t *tlb) invalidateSegment(seg SegID) {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].key.seg == seg {
			t.entries[i].valid = false
		}
	}
	for i := range t.spans {
		if t.spans[i].valid && t.spans[i].key.seg == seg {
			t.spans[i].valid = false
		}
	}
}
