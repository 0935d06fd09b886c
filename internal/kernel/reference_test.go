package kernel

// Reference models for the serial mapping table and TLB: the bodies these
// structures had before they were indexed (PR 13), kept verbatim apart from
// the type names and the TLB's hit and miss counters, which are the
// kernel's now. refMappingTable stores the entry pointer in every slot and
// refTLB scans all of its entries on every operation; FuzzMappingTable and
// FuzzTLB drive them in lock step with the production structures and
// require identical answers and contents (and the table's counters) after
// every operation. refMappingTable keeps one rule the production table
// gained with its packed slot: a key outside the packed range is
// uncacheable (refCacheable).

// refCheckDisjoint is the batch collision check as it was before PR 14: it
// walks the batch page by page — each range's source pages, then its
// destination pages — keeping one map entry per page, and reports the first
// page already seen on its side. FuzzBatchDisjoint requires checkDisjoint's
// every arm to give its verdict, segment and page.
func refCheckDisjoint(src, dst *Segment, ranges []PageRange) error {
	srcPages := make(map[int64]struct{})
	dstPages := make(map[int64]struct{})
	for _, r := range ranges {
		for p := r.Page; p < r.Page+r.Pages; p++ {
			if _, dup := srcPages[p]; dup {
				return pageError(ErrBadRange, src, p)
			}
			srcPages[p] = struct{}{}
		}
		for p := r.To; p < r.To+r.Pages; p++ {
			if _, dup := dstPages[p]; dup {
				return pageError(ErrBadRange, dst, p)
			}
			dstPages[p] = struct{}{}
		}
	}
	return nil
}

type refHashEntry struct {
	key   mapKey
	entry *pageEntry
	valid bool
}

type refMappingTable struct {
	slots []refHashEntry
	// overflow stays an embedded fixed array (not a slice): its scans are
	// on the migrate hot path and the array keeps them bounds-check-free
	// and local to the struct. ovLen is the logical area size — the paper's
	// 32 in production, smaller in fuzz tables.
	overflow [hashOverflow]refHashEntry
	ovLen    int
	shift    uint // 64 - log2(len(slots)); index takes the top bits
	// spanSeen records (as a bitmask over orders, monotonically) that a
	// superpage span entry was ever inserted. Zero — always, with
	// superpages off — keeps lookup exactly the paper's two-probe shape,
	// so golden hit/miss counts cannot move.
	spanSeen uint8
	// statistics
	hits, misses, spills, drops int64
}

// newRefMappingTable builds a table with the given direct-mapped slot
// count (a power of two) and overflow area size (at most hashOverflow).
// Production uses the paper's 64K/32 via newMappingTable; fuzz tests shrink
// both so collisions and overflow pressure happen in a few operations.
func newRefMappingTable(slots, overflow int) *refMappingTable {
	if slots <= 0 || slots&(slots-1) != 0 {
		panic("kernel: mapping table slot count must be a positive power of two")
	}
	if overflow < 0 || overflow > hashOverflow {
		panic("kernel: mapping table overflow size out of range")
	}
	shift := uint(64)
	for s := slots; s > 1; s >>= 1 {
		shift--
	}
	return &refMappingTable{
		slots: make([]refHashEntry, slots),
		ovLen: overflow,
		shift: shift,
	}
}

// index computes the direct-mapped slot for a key. The multiplier is a
// 64-bit odd constant (Fibonacci hashing); segment and page both participate
// so consecutive pages of one segment spread across the table.
func (t *refMappingTable) index(k mapKey) int {
	h := uint64(k.seg)<<40 ^ uint64(k.page)
	h *= 0x9e3779b97f4a7c15
	return int(h >> t.shift) // top bits: len(slots) slots
}

// refCacheable reports whether the production table can hold k, a base-page
// key or the untagged base of a span: a page in [0, 2^40) of a segment
// below 2^19. Every other key is uncacheable — lookups miss it, and insert
// and remove leave the table alone.
func refCacheable(k mapKey) bool {
	return k.page >= 0 && k.page < 1<<40 && k.seg < 1<<19
}

// find probes slot and overflow for exactly key k without touching the
// hit/miss counters; lookup composes it so a span probe does not
// double-count.
func (t *refMappingTable) find(k mapKey) (*pageEntry, bool) {
	s := &t.slots[t.index(k)]
	if s.valid && s.key == k {
		return s.entry, true
	}
	ov := t.overflow[:t.ovLen]
	for i := range ov {
		o := &ov[i]
		if o.valid && o.key == k {
			return o.entry, true
		}
	}
	return nil, false
}

// lookup finds the page entry for key, reporting whether it was present.
// After an exact miss it probes the span keys of any live extent orders,
// so one cached span entry answers for every page of its extent.
func (t *refMappingTable) lookup(k mapKey) (*pageEntry, bool) {
	if !refCacheable(k) {
		t.misses++
		return nil, false
	}
	if e, ok := t.find(k); ok {
		t.hits++
		return e, true
	}
	if t.spanSeen != 0 {
		for o := 1; o <= MaxExtentOrder; o++ {
			if t.spanSeen&(1<<uint(o)) == 0 {
				continue
			}
			sk := spanMapKey(mapKey{k.seg, extentBase(k.page, o)}, o)
			if e, ok := t.find(sk); ok {
				t.hits++
				return e, true
			}
		}
	}
	t.misses++
	return nil, false
}

// insertSpan caches one entry covering a whole extent under its tagged
// span key; lookup's masked-base probes find it for every covered page.
// The cached entry is the extent's base-page entry — span hits only need
// to report presence (the fault path reads flags and frames from the
// authoritative page store), so serving the base entry for any covered
// page is sound.
func (t *refMappingTable) insertSpan(k mapKey, e *pageEntry, order uint8) {
	if !refCacheable(k) {
		return
	}
	t.spanSeen |= 1 << order
	t.put(spanMapKey(k, int(order)), e)
}

// removeSpan withdraws a span entry (extent demoted).
func (t *refMappingTable) removeSpan(k mapKey, order uint8) {
	if refCacheable(k) {
		t.forget(spanMapKey(k, int(order)))
	}
}

// insert caches a mapping, displacing any colliding occupant to the overflow
// area (and dropping the displaced mapping if the overflow area is full).
//
// The overflow area is scanned only on displacement — the common case
// (empty or same-key slot) stays O(1), which matters because every
// MigratePages runs through here. The displacement pass invalidates stale
// copies of both keys in one sweep: the inserted key (which may have been
// displaced there earlier, with an out-of-date entry pointer) and the
// displaced occupant (which must not end up in the area twice). A same-key
// overwrite can therefore leave a stale copy of k in the overflow area,
// but it is unreachable — lookup checks the slot first, remove sweeps both
// areas, and the copy is purged the next time k's slot is displaced —
// so at most one overflow copy per key ever exists.
func (t *refMappingTable) insert(k mapKey, e *pageEntry) {
	if !refCacheable(k) {
		return
	}
	t.put(k, e)
}

// put caches k, a base-page key or a span-tagged one.
func (t *refMappingTable) put(k mapKey, e *pageEntry) {
	s := &t.slots[t.index(k)]
	if s.valid && s.key != k {
		ov := t.overflow[:t.ovLen]
		free := -1
		for i := range ov {
			o := &ov[i]
			if o.valid && (o.key == k || o.key == s.key) {
				o.valid = false
			}
			if !o.valid && free < 0 {
				free = i
			}
		}
		if free >= 0 {
			ov[free] = *s
			t.spills++
		} else {
			t.drops++ // overflow full: the displaced mapping is forgotten
		}
	}
	*s = refHashEntry{key: k, entry: e, valid: true}
}

// remove forgets a mapping (page unmapped, migrated away, or flags changed
// such that cached translations must not be used).
func (t *refMappingTable) remove(k mapKey) {
	if refCacheable(k) {
		t.forget(k)
	}
}

// forget drops k, a base-page key or a span-tagged one.
func (t *refMappingTable) forget(k mapKey) {
	s := &t.slots[t.index(k)]
	if s.valid && s.key == k {
		s.valid = false
	}
	ov := t.overflow[:t.ovLen]
	for i := range ov {
		if ov[i].valid && ov[i].key == k {
			ov[i].valid = false
		}
	}
}

// removeSegment drops every cached mapping of one segment (segment delete).
func (t *refMappingTable) removeSegment(seg SegID) {
	for i := range t.slots {
		if t.slots[i].valid && t.slots[i].key.seg == seg {
			t.slots[i].valid = false
		}
	}
	ov := t.overflow[:t.ovLen]
	for i := range ov {
		if ov[i].valid && ov[i].key.seg == seg {
			ov[i].valid = false
		}
	}
}

func (t *refMappingTable) stats() (hits, misses, spills, drops int64) {
	return t.hits, t.misses, t.spills, t.drops
}

type refTLB struct {
	entries []refTLBEntry
	next    int
	// spans are the superpage ways: each valid span covers 2^order pages
	// from its base. nil (always, with superpages off) so the default
	// lookup shape — and thus the golden hit/miss counts — is untouched.
	spans    []tlbSpan
	spanNext int
}

type refTLBEntry struct {
	key   mapKey
	valid bool
}

func newRefTLB(size int) *refTLB {
	return &refTLB{entries: make([]refTLBEntry, size)}
}

// lookup reports whether the translation for k is cached, either exactly
// or through a superpage way covering it.
func (t *refTLB) lookup(k mapKey) bool {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].key == k {
			return true
		}
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
func (t *refTLB) installSpan(k mapKey, order uint8) {
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
func (t *refTLB) invalidateSpan(k mapKey, order uint8) {
	for i := range t.spans {
		if t.spans[i].valid && t.spans[i].key == k && t.spans[i].order == order {
			t.spans[i].valid = false
		}
	}
}

// install caches a translation, evicting round-robin.
func (t *refTLB) install(k mapKey) {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].key == k {
			return
		}
	}
	t.entries[t.next] = refTLBEntry{key: k, valid: true}
	t.next = (t.next + 1) % len(t.entries)
}

// invalidate removes a cached translation (page migrated, unmapped, or
// protection changed).
func (t *refTLB) invalidate(k mapKey) {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].key == k {
			t.entries[i].valid = false
		}
	}
}

// invalidateSegment flushes all translations of one segment, superpage
// ways included.
func (t *refTLB) invalidateSegment(seg SegID) {
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
