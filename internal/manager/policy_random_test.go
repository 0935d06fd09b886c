package manager

import (
	"testing"

	"epcm/internal/kernel"
)

// fakeHost is a minimal in-memory PolicyHost for order-sensitive policy
// unit tests: every page is owned, present, unreferenced, unpinned and
// admitted, so the policy's own choice is the only thing Victim can
// express.
type fakeHost struct {
	resident []PageID
}

func newFakeHost(pages ...PageID) *fakeHost {
	// Copy: Forget compacts resident in place and must not alias the
	// caller's slice.
	return &fakeHost{resident: append([]PageID(nil), pages...)}
}

func (h *fakeHost) ResidentLen() int        { return len(h.resident) }
func (h *fakeHost) ResidentAt(i int) PageID { return h.resident[i] }
func (h *fakeHost) Admits(id PageID) bool   { return true }
func (h *fakeHost) Sample(id PageID) (kernel.PageAttribute, error) {
	for _, r := range h.resident {
		if r == id {
			return kernel.PageAttribute{Page: id.Page, Present: true}, nil
		}
	}
	return kernel.PageAttribute{Page: id.Page}, nil
}
func (h *fakeHost) ClearReferenced(PageID) error { return nil }
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

// TestRandomPolicyDeterministicAndUniform pins the two properties random
// replacement must have here: a fixed seed makes victim sequences exactly
// reproducible run to run, and over many draws every resident page is
// actually chosen (no stateful bias — the policy keeps no bookkeeping).
func TestRandomPolicyDeterministicAndUniform(t *testing.T) {
	run := func() []int64 {
		pages := make([]PageID, 16)
		for i := range pages {
			pages[i] = PageID{Page: int64(i)}
		}
		h := newFakeHost(pages...)
		p := NewRandomPolicy()
		var order []int64
		for h.ResidentLen() > 0 {
			id, _, ok, err := p.Victim(h)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("no victim with %d resident", h.ResidentLen())
			}
			order = append(order, id.Page)
			h.evict(p, id)
		}
		return order
	}
	first, second := run(), run()
	if len(first) != 16 {
		t.Fatalf("evicted %d pages, want 16", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("victim sequence not deterministic at step %d: %v vs %v", i, first, second)
		}
	}
	seen := map[int64]bool{}
	for _, p := range first {
		if seen[p] {
			t.Fatalf("page %d evicted twice: %v", p, first)
		}
		seen[p] = true
	}
}

// TestRandomPolicyFallbackFindsLoneEligible checks the bounded random
// probing falls through to the deterministic sweep: with all but one page
// pinned, Victim must still find the single eligible page.
func TestRandomPolicyFallbackFindsLoneEligible(t *testing.T) {
	pages := make([]PageID, 12)
	pinned := map[PageID]bool{}
	for i := range pages {
		pages[i] = PageID{Page: int64(i)}
		if i != 7 {
			pinned[pages[i]] = true
		}
	}
	h := &pinnedHost{fakeHost: newFakeHost(pages...), pinned: pinned}
	p := NewRandomPolicy()
	id, _, ok, err := p.Victim(h)
	if err != nil || !ok || id.Page != 7 {
		t.Fatalf("victim = %v ok=%v err=%v, want the lone unpinned page 7", id, ok, err)
	}
	// Fully pinned: no victim, no infinite loop.
	pinned[pages[7]] = true
	if _, _, ok, _ := p.Victim(h); ok {
		t.Fatal("victim despite every page pinned")
	}
}
