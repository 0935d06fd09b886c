package manager

import (
	"testing"

	"epcm/internal/kernel"
)

// fakeHost is a minimal in-memory PolicyHost for order-sensitive policy
// unit tests: every page is owned, present, unpinned and admitted, so the
// policy's own ordering is the only thing Victim can express.
type fakeHost struct {
	resident []PageID
	refbits  map[PageID]bool
	samples  int
}

func newFakeHost(pages ...PageID) *fakeHost {
	// Copy: Forget compacts resident in place and must not alias the
	// caller's slice.
	return &fakeHost{resident: append([]PageID(nil), pages...), refbits: map[PageID]bool{}}
}

func (h *fakeHost) ResidentLen() int        { return len(h.resident) }
func (h *fakeHost) ResidentAt(i int) PageID { return h.resident[i] }
func (h *fakeHost) Admits(id PageID) bool   { return true }
func (h *fakeHost) Sample(id PageID) (kernel.PageAttribute, error) {
	h.samples++
	var flags kernel.PageFlags
	if h.refbits[id] {
		flags |= kernel.FlagReferenced
	}
	for _, r := range h.resident {
		if r == id {
			return kernel.PageAttribute{Page: id.Page, Present: true, Flags: flags}, nil
		}
	}
	return kernel.PageAttribute{Page: id.Page}, nil
}
func (h *fakeHost) SampleMany(seg *kernel.Segment, pages []int64, dst []kernel.PageAttribute) ([]kernel.PageAttribute, error) {
	dst = dst[:0]
	for _, p := range pages {
		a, _ := h.Sample(PageID{Seg: seg, Page: p})
		dst = append(dst, a)
	}
	return dst, nil
}
func (h *fakeHost) ClearReferenced(id PageID) error { h.refbits[id] = false; return nil }
func (h *fakeHost) ClearReferencedMany(seg *kernel.Segment, pages []int64) error {
	for _, p := range pages {
		h.refbits[PageID{Seg: seg, Page: p}] = false
	}
	return nil
}
func (h *fakeHost) Forget(id PageID) {
	for i, r := range h.resident {
		if r == id {
			h.resident = append(h.resident[:i], h.resident[i+1:]...)
			return
		}
	}
}

// evict removes id from the fake resident list and fires the policy's
// Remove hook, as the real manager does after a successful eviction.
func (h *fakeHost) evict(p Policy, id PageID) {
	h.Forget(id)
	p.Remove(h, id)
}

// TestFIFOEvictsInArrivalOrder pins true-FIFO behaviour: victims come out
// in exact insertion order, and neither Touch nor the hardware reference
// bit reorders the queue — the properties that distinguish FIFO from LRU
// and clock.
func TestFIFOEvictsInArrivalOrder(t *testing.T) {
	pages := make([]PageID, 8)
	for i := range pages {
		pages[i] = PageID{Page: int64(i)}
	}
	h := newFakeHost(pages...)
	p := NewFIFOPolicy()
	for _, id := range pages {
		p.Insert(h, id)
	}
	// Heavily touch and reference the oldest pages: FIFO must ignore both.
	for i := 0; i < 4; i++ {
		p.Touch(h, pages[i])
		h.refbits[pages[i]] = true
	}
	for i := 0; i < len(pages); i++ {
		id, _, ok, err := p.Victim(h)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("no victim at step %d", i)
		}
		if id != pages[i] {
			t.Fatalf("victim %d = page %d, want page %d (arrival order)", i, id.Page, pages[i].Page)
		}
		h.evict(p, id)
	}
	if _, _, ok, _ := p.Victim(h); ok {
		t.Fatal("victim from an empty queue")
	}
}

// TestFIFOSkipsIneligibleWithoutReordering checks a pinned page at the head
// of the queue is skipped — not evicted, not moved — and becomes the victim
// as soon as it is unpinned.
func TestFIFOSkipsIneligibleWithoutReordering(t *testing.T) {
	a, b, c := PageID{Page: 1}, PageID{Page: 2}, PageID{Page: 3}
	h := newFakeHost(a, b, c)
	p := NewFIFOPolicy()
	pinned := map[PageID]bool{a: true}
	ph := &pinnedHost{fakeHost: h, pinned: pinned}
	for _, id := range []PageID{a, b, c} {
		p.Insert(ph, id)
	}
	id, _, ok, err := p.Victim(ph)
	if err != nil || !ok || id != b {
		t.Fatalf("victim = %v ok=%v err=%v, want page 2 (oldest unpinned)", id, ok, err)
	}
	ph.evict(p, id)
	delete(pinned, a)
	id, _, ok, err = p.Victim(ph)
	if err != nil || !ok || id != a {
		t.Fatalf("victim after unpin = %v ok=%v err=%v, want page 1", id, ok, err)
	}
}

// pinnedHost overlays pinned flags on fakeHost.
type pinnedHost struct {
	*fakeHost
	pinned map[PageID]bool
}

func (h *pinnedHost) Sample(id PageID) (kernel.PageAttribute, error) {
	a, err := h.fakeHost.Sample(id)
	if h.pinned[id] {
		a.Flags |= kernel.FlagPinned
	}
	return a, err
}
