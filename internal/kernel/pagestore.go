package kernel

import (
	"slices"

	"epcm/internal/phys"
)

// pageStore holds a segment's present pages. Every simulated memory
// reference ends in a lookup here, so the structure is optimized for the
// common shape of this repository's segments: a contiguous (or nearly
// contiguous) run of pages starting at page 0 — program heaps touched in
// order, cached files read sequentially, the boot segment's full
// physical-address-order frame run. Those pages live in a dense slice
// indexed by page number, where a lookup is a bounds check and a load
// instead of a map probe. Pages far beyond the dense prefix (sparse
// segments, huge page numbers) fall back to a map.
//
// Invariant: every sparse key lies beyond the dense prefix. When the prefix
// grows (grow, from put and reserve) it takes over the sparse pages it now
// covers, so a dead dense slot means the page is absent and a page is never
// in both arms.
//
// Dense entries are stored in place: a pageEntry is 8 pointer-free bytes, so
// the boot segment's 32 768 pages are one allocation the collector never
// scans. get returns a pointer into the store that stays valid until the
// store next changes; a caller that puts or deletes after a get copies the
// entry first.
//
// The split is purely an implementation detail: put/get/del/forEach behave
// exactly like a map[int64]pageEntry, which the property tests in
// pagestore_test.go verify against a reference model.

const (
	// pageStoreDenseDirect is the page number below which the dense slice
	// always grows to cover a put: at most 32 KB of slice per segment.
	pageStoreDenseDirect = 4096
	// pageStoreDenseMax caps dense growth: a put at or beyond this page
	// number never extends the dense prefix (2M entries = 16 MB of slice,
	// covering an 8 GB segment of 4 KB pages).
	pageStoreDenseMax = 1 << 21
)

type pageStore struct {
	dense  []pageEntry          // pages [0, len(dense)); not live = absent
	sparse map[int64]*pageEntry // present pages at or beyond len(dense)
	n      int                  // number of present pages
}

// get returns the entry at page, if present.
func (ps *pageStore) get(page int64) (*pageEntry, bool) {
	if uint64(page) < uint64(len(ps.dense)) {
		if e := &ps.dense[page]; e.live {
			return e, true
		}
		return nil, false
	}
	e, ok := ps.sparse[page]
	return e, ok
}

// has reports whether page is present.
func (ps *pageStore) has(page int64) bool {
	_, ok := ps.get(page)
	return ok
}

// admitDense reports whether a put at page should extend the dense prefix.
// Small page numbers always densify; beyond that the prefix may at most
// double per out-of-range put, so one far-out page cannot balloon the slice.
func (ps *pageStore) admitDense(page int64) bool {
	if page >= pageStoreDenseMax {
		return false
	}
	return page < pageStoreDenseDirect || page < int64(2*len(ps.dense))
}

// reserve sizes the dense prefix once for puts about to cover [lo, end) in
// ascending order, deciding as they would one append at a time: the first
// page beyond the prefix decides for all — admitted, each successor is under
// twice the new length; refused, each successor is further out still.
func (ps *pageStore) reserve(lo, end int64) {
	n := int64(len(ps.dense))
	if end = min(end, pageStoreDenseMax); end > n && ps.admitDense(max(lo, n)) {
		ps.grow(end)
	}
}

// grow extends the dense prefix to end pages and takes over the sparse
// pages it now covers, probing the new slots or walking the map, whichever
// is shorter.
func (ps *pageStore) grow(end int64) {
	n := int64(len(ps.dense))
	ps.dense = append(ps.dense, make([]pageEntry, end-n)...)
	if len(ps.sparse) == 0 {
		return
	}
	if end-n <= int64(len(ps.sparse)) {
		for p := n; p < end; p++ {
			if e, ok := ps.sparse[p]; ok {
				ps.dense[p] = *e
				delete(ps.sparse, p)
			}
		}
		return
	}
	for p, e := range ps.sparse {
		if p < end {
			ps.dense[p] = *e
			delete(ps.sparse, p)
		}
	}
}

// firstAbsent returns the offset of the first page of [lo, lo+n) that is not
// present, or n. lo is not negative.
func (ps *pageStore) firstAbsent(lo, n int64) int64 {
	i := int64(0)
	if d := int64(len(ps.dense)) - lo; d > 0 {
		for _, e := range ps.dense[lo : lo+min(n, d)] {
			if !e.live {
				return i
			}
			i++
		}
	}
	for i < n && ps.has(lo+i) {
		i++
	}
	return i
}

// firstPresent returns the offset of the first page of [lo, lo+n) that is
// present, or n. lo is not negative.
func (ps *pageStore) firstPresent(lo, n int64) int64 {
	i := int64(0)
	if d := int64(len(ps.dense)) - lo; d > 0 {
		for _, e := range ps.dense[lo : lo+min(n, d)] {
			if e.live {
				return i
			}
			i++
		}
	}
	if len(ps.sparse) == 0 {
		return n
	}
	for i < n && !ps.has(lo+i) {
		i++
	}
	return i
}

// moveRun moves pages [lo, lo+n), all present, to the slots [to, to+n) of
// dst, all absent and already reserved, applies set and unset to each moved
// entry's flags, and returns the moved entries in page order. When ps's
// prefix covers the source range and dst's covers the destination, the
// entries change stores slot to slot and the result is dst's own slots.
// Otherwise they move entry by entry and the result is a copy. dst may be ps.
func (ps *pageStore) moveRun(dst *pageStore, lo, to, n int64, set, unset PageFlags) []pageEntry {
	if n > int64(len(ps.dense))-lo || n > int64(len(dst.dense))-to {
		moved := make([]pageEntry, n)
		for i := range moved {
			e, _ := ps.get(lo + int64(i))
			moved[i] = *e // del frees the slot e points at
			ps.del(lo + int64(i))
			moved[i].flags = moved[i].flags.Apply(set, unset)
			dst.put(to+int64(i), moved[i])
		}
		return moved
	}
	moved := dst.dense[to : to+n]
	copy(moved, ps.dense[lo:lo+n])
	clear(ps.dense[lo : lo+n])
	for i := range moved {
		moved[i].flags = moved[i].flags.Apply(set, unset)
	}
	ps.n -= int(n)
	dst.n += int(n)
	return moved
}

// identityRun fills an empty store with pages [0, n), page i on frame i —
// the boot segment — in one pass over the dense prefix, exactly as n puts in
// page order would: pages beyond pageStoreDenseMax go sparse.
func (ps *pageStore) identityRun(n int64) {
	ps.reserve(0, n)
	for i := range ps.dense {
		ps.dense[i] = pageEntry{pfn: phys.PFN(i), live: true}
	}
	ps.n = len(ps.dense)
	for p := int64(len(ps.dense)); p < n; p++ {
		ps.put(p, pageEntry{pfn: phys.PFN(p)})
	}
}

// put stores e at page, replacing any existing entry.
func (ps *pageStore) put(page int64, e pageEntry) {
	if page < 0 {
		panic("kernel: negative page in pageStore.put")
	}
	e.live = true
	if page >= int64(len(ps.dense)) && ps.admitDense(page) {
		ps.grow(page + 1)
	}
	if page < int64(len(ps.dense)) {
		if !ps.dense[page].live {
			ps.n++
		}
		ps.dense[page] = e
		return
	}
	if ps.sparse == nil {
		ps.sparse = make(map[int64]*pageEntry)
	}
	if old, ok := ps.sparse[page]; ok {
		*old = e
		return
	}
	// Only the sparse arm boxes an entry: taking e's address instead would
	// move every put's parameter to the heap, dense puts included.
	box := new(pageEntry)
	*box = e
	ps.sparse[page] = box
	ps.n++
}

// del removes the entry at page if present.
func (ps *pageStore) del(page int64) {
	if uint64(page) < uint64(len(ps.dense)) {
		if ps.dense[page].live {
			ps.dense[page] = pageEntry{}
			ps.n--
		}
		return
	}
	if _, ok := ps.sparse[page]; ok {
		delete(ps.sparse, page)
		ps.n--
	}
}

// restore makes ps a copy of from, reusing ps's dense prefix: a restored
// prefix has from's length, which decides dense admission, whatever ps
// held.
func (ps *pageStore) restore(from *pageStore) {
	ps.dense = append(ps.dense[:0], from.dense...)
	ps.sparse = nil
	for p, e := range from.sparse {
		if ps.sparse == nil {
			ps.sparse = make(map[int64]*pageEntry, len(from.sparse))
		}
		box := *e
		ps.sparse[p] = &box
	}
	ps.n = from.n
}

// len reports the number of present pages.
func (ps *pageStore) len() int { return ps.n }

// clear drops every page (segment deletion).
func (ps *pageStore) clear() {
	ps.dense = nil
	ps.sparse = nil
	ps.n = 0
}

// forEach calls fn for every present page in ascending page order, stopping
// early if fn returns false. fn may delete the page it was called with, but
// must not otherwise mutate the store.
func (ps *pageStore) forEach(fn func(page int64, e *pageEntry) bool) {
	if ps.n == 0 {
		// A drained store keeps its dense prefix: a fixed pool's exhausted
		// donor would otherwise be walked slot by slot on every request.
		return
	}
	dense := ps.dense // one load of the header, not one per slot around fn
	for p := range dense {
		if e := &dense[p]; e.live && !fn(int64(p), e) {
			return
		}
	}
	if len(ps.sparse) == 0 {
		return
	}
	// Every sparse key lies beyond the prefix: sorted, they follow it.
	keys := make([]int64, 0, len(ps.sparse))
	for p := range ps.sparse {
		keys = append(keys, p)
	}
	slices.Sort(keys)
	for _, p := range keys {
		if !fn(p, ps.sparse[p]) {
			return
		}
	}
}

// pages returns the present page numbers in ascending order.
func (ps *pageStore) pages() []int64 {
	out := make([]int64, 0, ps.n)
	ps.forEach(func(page int64, _ *pageEntry) bool {
		out = append(out, page)
		return true
	})
	return out
}
