package manager

import (
	"fmt"
	"testing"

	"epcm/internal/kernel"
)

// FuzzPolicy drives every registered policy through an arbitrary
// byte-decoded sequence of insert/touch/remove/victim operations against a
// fake PolicyHost that enforces the host contract:
//
//   - sampling and flag-clearing are only legal inside Victim (hooks must
//     issue no kernel calls);
//   - a chosen victim must be live, present and unpinned;
//   - Forget may only be called on a page whose sample showed !Present, and
//     fires Remove reentrantly exactly like Generic.removeResident;
//   - the policy's insert/remove bookkeeping must balance the live set.
//
// The fake host also vanishes pages behind the policy's back (the kernel
// divergence case) and flips reference/pin/admission state, so Victim's
// revalidation paths all execute.
func FuzzPolicy(f *testing.F) {
	f.Add([]byte("\x00\x01\x00\x02\x00\x03\x03\x00"))
	f.Add([]byte("\x00\x01\x00\x02\x01\x01\x04\x00\x03\x00\x03\x00\x03\x00"))
	f.Add([]byte("\x00\x00\x00\x01\x00\x02\x00\x03\x05\x01\x02\x01\x03\x00\x03\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range PolicyNames() {
			p, err := NewPolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			h := newFuzzHost(t, name, p)
			h.run(data)
		}
	})
}

// fuzzHost is a PolicyHost over a synthetic resident set: segments are bare
// identities, flags live in a map, and no kernel exists.
type fuzzHost struct {
	t      *testing.T
	name   string
	p      Policy
	segs   [2]*kernel.Segment
	res    []PageID
	live   map[PageID]int // -> index in res
	flags  map[PageID]kernel.PageFlags
	gone   map[PageID]bool // in res but vanished (Sample -> !Present)
	reject map[PageID]bool // Admits() == false

	inVictim bool
	inserts  int
	removes  int
}

func newFuzzHost(t *testing.T, name string, p Policy) *fuzzHost {
	return &fuzzHost{
		t: t, name: name, p: p,
		segs:   [2]*kernel.Segment{new(kernel.Segment), new(kernel.Segment)},
		live:   map[PageID]int{},
		flags:  map[PageID]kernel.PageFlags{},
		gone:   map[PageID]bool{},
		reject: map[PageID]bool{},
	}
}

func (h *fuzzHost) id(arg byte) PageID {
	return PageID{Seg: h.segs[(arg>>6)&1], Page: int64(arg & 0x3f)}
}

// pick selects the arg-th live page, or ok=false when none are live.
func (h *fuzzHost) pick(arg byte) (PageID, bool) {
	if len(h.res) == 0 {
		return PageID{}, false
	}
	return h.res[int(arg)%len(h.res)], true
}

func (h *fuzzHost) run(data []byte) {
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, data[i+1]
		switch op {
		case 0: // insert
			id := h.id(arg)
			if _, dup := h.live[id]; dup {
				continue
			}
			h.live[id] = len(h.res)
			h.res = append(h.res, id)
			// Freshly faulted pages carry referenced+dirty, as MigratePages
			// sets them on map-in.
			h.flags[id] = kernel.FlagReferenced | kernel.FlagDirty
			h.inserts++
			h.p.Insert(h, id)
		case 1: // touch
			if id, ok := h.pick(arg); ok && !h.gone[id] {
				h.flags[id] |= kernel.FlagReferenced
				h.p.Touch(h, id)
			}
		case 2: // remove
			if id, ok := h.pick(arg); ok {
				h.drop(id)
				h.p.Remove(h, id)
			}
		case 3: // victim
			h.victim()
		case 4: // vanish: kernel state diverges behind the policy's back
			if id, ok := h.pick(arg); ok {
				h.gone[id] = true
			}
		case 5: // toggle admission
			if id, ok := h.pick(arg); ok {
				h.reject[id] = !h.reject[id]
			}
		case 6: // pin / unpin
			if id, ok := h.pick(arg); ok {
				h.flags[id] ^= kernel.FlagPinned
			}
		case 7: // re-reference
			if id, ok := h.pick(arg); ok && !h.gone[id] {
				h.flags[id] |= kernel.FlagReferenced
			}
		}
	}
	// Drain: with all pages admissible, unpinned and vanish-state intact,
	// repeated Victim calls must terminate and the books must balance.
	for id := range h.reject {
		delete(h.reject, id)
	}
	for id := range h.flags {
		h.flags[id] &^= kernel.FlagPinned
	}
	for range [4]int{} {
		if !h.victim() {
			break
		}
	}
	if h.inserts-h.removes != len(h.res) {
		h.t.Fatalf("%s: insert/remove books unbalanced: %d - %d != %d live",
			h.name, h.inserts, h.removes, len(h.res))
	}
}

// victim invokes the policy and validates its choice; reports whether a
// victim was produced.
func (h *fuzzHost) victim() bool {
	h.inVictim = true
	id, flags, ok, err := h.p.Victim(h)
	h.inVictim = false
	if err != nil {
		h.t.Fatalf("%s: Victim error from fake host: %v", h.name, err)
	}
	if !ok {
		return false
	}
	if _, live := h.live[id]; !live {
		h.t.Fatalf("%s: victim %v is not live", h.name, id)
	}
	if h.gone[id] {
		h.t.Fatalf("%s: victim %v sampled !Present but was chosen", h.name, id)
	}
	if h.flags[id].Has(kernel.FlagPinned) || flags.Has(kernel.FlagPinned) {
		h.t.Fatalf("%s: victim %v is pinned", h.name, id)
	}
	if h.reject[id] {
		h.t.Fatalf("%s: victim %v rejected by Admits", h.name, id)
	}
	// Evict: exactly what Generic does after a successful Victim.
	h.drop(id)
	h.p.Remove(h, id)
	return true
}

// drop removes id from the fake resident set (swap-remove, like resIdx).
func (h *fuzzHost) drop(id PageID) {
	i, ok := h.live[id]
	if !ok {
		h.t.Fatalf("%s: drop of non-live %v", h.name, id)
	}
	last := len(h.res) - 1
	h.res[i] = h.res[last]
	h.res = h.res[:last]
	if i < last {
		h.live[h.res[i]] = i
	}
	delete(h.live, id)
	delete(h.flags, id)
	delete(h.gone, id)
	delete(h.reject, id)
	h.removes++
}

// PolicyHost implementation.

func (h *fuzzHost) ResidentLen() int        { return len(h.res) }
func (h *fuzzHost) ResidentAt(i int) PageID { return h.res[i] }
func (h *fuzzHost) Admits(id PageID) bool   { return !h.reject[id] }

func (h *fuzzHost) Sample(id PageID) (kernel.PageAttribute, error) {
	h.requireVictim("Sample")
	if _, live := h.live[id]; !live || h.gone[id] {
		return kernel.PageAttribute{}, nil
	}
	return kernel.PageAttribute{Present: true, Flags: h.flags[id]}, nil
}

func (h *fuzzHost) SampleMany(seg *kernel.Segment, pages []int64, dst []kernel.PageAttribute) ([]kernel.PageAttribute, error) {
	h.requireVictim("SampleMany")
	for _, p := range pages {
		a, _ := h.sampleNoCheck(PageID{Seg: seg, Page: p})
		dst = append(dst, a)
	}
	return dst, nil
}

func (h *fuzzHost) sampleNoCheck(id PageID) (kernel.PageAttribute, error) {
	if _, live := h.live[id]; !live || h.gone[id] {
		return kernel.PageAttribute{}, nil
	}
	return kernel.PageAttribute{Present: true, Flags: h.flags[id]}, nil
}

func (h *fuzzHost) ClearReferenced(id PageID) error {
	h.requireVictim("ClearReferenced")
	if _, live := h.live[id]; live && !h.gone[id] {
		h.flags[id] &^= kernel.FlagReferenced
	}
	return nil
}

func (h *fuzzHost) ClearReferencedMany(seg *kernel.Segment, pages []int64) error {
	h.requireVictim("ClearReferencedMany")
	for _, p := range pages {
		id := PageID{Seg: seg, Page: p}
		if _, live := h.live[id]; live && !h.gone[id] {
			h.flags[id] &^= kernel.FlagReferenced
		}
	}
	return nil
}

func (h *fuzzHost) Forget(id PageID) {
	h.requireVictim("Forget")
	if !h.gone[id] {
		h.t.Fatalf("%s: Forget(%v) on a present page", h.name, id)
	}
	h.drop(id)
	h.p.Remove(h, id) // reentrant, as Generic.removeResident fires hooks
}

func (h *fuzzHost) requireVictim(call string) {
	if !h.inVictim {
		h.t.Fatalf("%s: %s called outside Victim (hooks must issue no kernel calls)", h.name, call)
	}
}

var _ PolicyHost = (*fuzzHost)(nil)

// TestFuzzPolicyCorpus replays the checked-in corpus deterministically so
// ordinary `go test` runs exercise the harness even without -fuzz.
func TestFuzzPolicyCorpus(t *testing.T) {
	corpus := [][]byte{
		[]byte("\x00\x01\x00\x02\x00\x03\x03\x00"),
		[]byte("\x00\x01\x00\x02\x01\x01\x04\x00\x03\x00\x03\x00\x03\x00"),
		[]byte("\x00\x00\x00\x01\x00\x02\x00\x03\x05\x01\x02\x01\x03\x00\x03\x00"),
		[]byte("\x00@\x00A\x00\x00\x06\x00\x03\x02\x03\x02\x03\x02\x03\x02"),
	}
	for i, data := range corpus {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			for _, name := range PolicyNames() {
				p, err := NewPolicy(name)
				if err != nil {
					t.Fatal(err)
				}
				newFuzzHost(t, name, p).run(data)
			}
		})
	}
}
