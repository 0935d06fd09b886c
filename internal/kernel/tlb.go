package kernel

import "slices"

// tlb models the R3000's 64-entry fully-associative TLB. The paper notes
// that "simple TLB misses are handled by the kernel" — a miss that finds the
// translation in the mapping hash table costs only a kernel refill; only a
// true mapping miss escalates to the segment walk and, if the page is not
// present, a fault to the manager.
//
// Replacement is round-robin, which is deterministic (the real R3000 used a
// hardware random register; determinism matters more here than fidelity of
// the replacement index distribution).
//
// A tlb has one writer at a time and no lock of its own: the serial
// scheduler's one kernel TLB is only touched from the delivering goroutine,
// and under the concurrent scheduler each segment has its own, touched only
// under that segment's lock (Kernel.tlbOf). Hit and miss counts are the
// kernel's (kernelStats), not the TLB's.
type tlb struct {
	entries []tlbEntry
	next    int
	// heads indexes the valid entries by key: heads[bucket(k)] starts a
	// chain through tlbEntry.link of the slots whose keys hash there, -1
	// ending it. A slot is on exactly one chain while valid and on none
	// otherwise, so lookup, install and invalidate walk one short chain
	// instead of every entry. The index decides nothing the model can
	// see: which slot a key occupies and next are what a linear scan of
	// entries would produce (FuzzTLB holds it to that).
	heads []int32
	shift uint // 64 - log2(len(heads))
	// spans are the superpage ways: each valid span covers 2^order pages
	// from its base. nil (always, with superpages off) so the default
	// lookup shape — and thus the golden hit/miss counts — is untouched.
	spans    []tlbSpan
	spanNext int
}

type tlbEntry struct {
	key   mapKey
	link  int32 // next slot on this key's bucket chain, -1 at the end
	valid bool
}

type tlbSpan struct {
	key   mapKey // extent base page
	order uint8
	valid bool
}

// tlbSpanWays bounds a TLB's superpage ways (the R4000-class
// machines that had superpage TLBs gave them a handful of dedicated
// entries; 8 wide ways of up to 64 pages each is 512 pages of reach).
const tlbSpanWays = 8

func newTLB(size int) *tlb {
	// Two buckets per entry keeps the expected chain under one link.
	buckets, shift := 2, uint(63)
	for buckets < 2*size {
		buckets, shift = buckets*2, shift-1
	}
	t := &tlb{entries: make([]tlbEntry, size), heads: make([]int32, buckets), shift: shift}
	for i := range t.heads {
		t.heads[i] = -1
	}
	return t
}

// clone copies the TLB, cursors included; nil for a nil t (a segment that
// has not made its own).
func (t *tlb) clone() *tlb {
	if t == nil {
		return nil
	}
	c := *t
	c.entries = slices.Clone(t.entries)
	c.heads = slices.Clone(t.heads)
	c.spans = slices.Clone(t.spans)
	return &c
}

// tlbOf is the TLB that caches s's translations: the kernel's one R3000 TLB
// under the serial scheduler, and under the concurrent one a TLB of s's own,
// made on first use. Every caller holds s's lock (Segment.lock, which takes
// s.mu on exactly the kernels this gives a TLB of s's own), so a segment's
// TLB, like its page store, has one writer at a time and needs no lock or
// shootdown of its own.
func (k *Kernel) tlbOf(s *Segment) *tlb {
	if !k.concurrent {
		return k.tlb
	}
	if s.tlb == nil {
		s.tlb = newTLB(k.cfg.TLBEntries)
	}
	return s.tlb
}

// bucket hashes a key to its chain head (the mapping tables' Fibonacci
// hash, so consecutive pages of one segment spread across the buckets).
func (t *tlb) bucket(k mapKey) uint64 { return casHash(k) >> t.shift }

// find returns the slot caching k, or -1.
func (t *tlb) find(k mapKey) int32 {
	for i := t.heads[t.bucket(k)]; i >= 0; i = t.entries[i].link {
		if t.entries[i].key == k {
			return i
		}
	}
	return -1
}

// unlink takes a valid slot off its chain and marks it invalid.
func (t *tlb) unlink(slot int32) {
	e := &t.entries[slot]
	p := &t.heads[t.bucket(e.key)]
	for *p != slot {
		p = &t.entries[*p].link
	}
	*p, e.valid = e.link, false
}

// lookup reports whether the translation for k is cached, either exactly
// or through a superpage way covering it.
func (t *tlb) lookup(k mapKey) bool {
	if t.find(k) >= 0 {
		return true
	}
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.valid && sp.key.seg == k.seg && sp.key.page == extentBase(k.page, int(sp.order)) {
			return true
		}
	}
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

// install caches a translation, evicting round-robin: the victim is the
// slot next points at, valid or not (an invalidated slot elsewhere is not
// preferred — the R3000's index register does not look either).
func (t *tlb) install(k mapKey) {
	if t.find(k) >= 0 {
		return
	}
	slot := int32(t.next)
	if t.entries[slot].valid {
		t.unlink(slot)
	}
	head := &t.heads[t.bucket(k)]
	t.entries[slot] = tlbEntry{key: k, link: *head, valid: true}
	*head = slot
	t.next = (t.next + 1) % len(t.entries)
}

// installRun is install of the n keys (k.seg, k.page+i), i ascending. When
// the run is longer than the TLB and caches none of its keys, every install
// takes a fresh slot, so the last len(entries) of them overwrite everything
// the earlier ones wrote: the cursor steps past those and only the last
// len(entries) are performed — the state n single installs leave.
func (t *tlb) installRun(k mapKey, n int64) {
	if size := int64(len(t.entries)); n > size && !t.cachesAny(k, n) {
		t.next = int((int64(t.next) + n - size) % size)
		k.page, n = k.page+n-size, size
	}
	for i := int64(0); i < n; i++ {
		t.install(mapKey{k.seg, k.page + i})
	}
}

// cachesAny reports whether any of the n keys from k is cached exactly.
func (t *tlb) cachesAny(k mapKey, n int64) bool {
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.key.seg == k.seg && e.key.page >= k.page && e.key.page-k.page < n {
			return true
		}
	}
	return false
}

// invalidate removes a cached translation (page migrated, unmapped, or
// protection changed).
func (t *tlb) invalidate(k mapKey) {
	if slot := t.find(k); slot >= 0 {
		t.unlink(slot)
	}
}

// invalidateSegment flushes all translations of one segment, superpage
// ways included.
func (t *tlb) invalidateSegment(seg SegID) {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].key.seg == seg {
			t.unlink(int32(i))
		}
	}
	for i := range t.spans {
		if t.spans[i].valid && t.spans[i].key.seg == seg {
			t.spans[i].valid = false
		}
	}
}
