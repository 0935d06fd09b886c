package manager

import "epcm/internal/kernel"

// residentIndex maps (segment, page) -> position in Generic.resident.
//
// It replaces a map[resKey]int: addResident runs once per fault on the
// delivery plane's hot path, and hashing the 16-byte struct key — plus the
// incremental rehashing as the map grew with the working set — measured at
// roughly a tenth of a fault-plane run. A manager's resident pages cluster
// in a dense run from page 0 of a handful of segments (the same shape the
// kernel's pageStore exploits), so the index is a small per-segment map
// over dense position slices, with a sparse map spill for far-out pages.
//
// Only the manager's own delivery context reads or writes it (one lane
// executor runs a manager at a time), so it takes no locks.
type residentIndex struct {
	bySeg map[*kernel.Segment]*posSlots
	// hint presizes a new segment's dense slice (PresizeResident), so a
	// working set touched in order never reallocates the prefix.
	hint int
}

// posSlots holds one segment's page -> position mapping. Positions are
// stored +1 so the zero value of a dense cell means "absent".
type posSlots struct {
	dense  []int32         // pages [0, len(dense))
	sparse map[int64]int32 // pages beyond the dense prefix
}

const (
	// posDenseDirect is the page number below which the dense slice always
	// grows to cover a put (at most 16 KB per segment).
	posDenseDirect = 4096
	// posDenseMax caps dense growth, mirroring pageStore's bound.
	posDenseMax = 1 << 21
)

func newResidentIndex() *residentIndex {
	return &residentIndex{bySeg: make(map[*kernel.Segment]*posSlots)}
}

// presize records the dense sizing hint for segments indexed from now on.
func (x *residentIndex) presize(pages int) {
	if pages > posDenseMax {
		pages = posDenseMax
	}
	if pages > x.hint {
		x.hint = pages
	}
}

func (x *residentIndex) slots(seg *kernel.Segment) *posSlots {
	ps := x.bySeg[seg]
	if ps == nil {
		ps = &posSlots{}
		if x.hint > 0 {
			ps.dense = make([]int32, x.hint)
		}
		x.bySeg[seg] = ps
	}
	return ps
}

func (x *residentIndex) get(k resKey) (int, bool) {
	ps := x.bySeg[k.seg]
	if ps == nil {
		return 0, false
	}
	if uint64(k.page) < uint64(len(ps.dense)) {
		p := ps.dense[k.page]
		return int(p) - 1, p != 0
	}
	p, ok := ps.sparse[k.page]
	return int(p) - 1, ok
}

func (x *residentIndex) put(k resKey, pos int) {
	ps := x.slots(k.seg)
	v := int32(pos) + 1
	if uint64(k.page) < uint64(len(ps.dense)) {
		ps.dense[k.page] = v
		return
	}
	cur := int64(len(ps.dense))
	if k.page >= 0 && k.page < posDenseMax && (k.page < posDenseDirect || k.page < 2*cur) {
		// Grow the dense prefix by doubling, which amortizes the copies, and
		// move any spilled pages it now covers into it.
		want := min(max(k.page+1, 2*cur), posDenseMax)
		grown := make([]int32, want)
		copy(grown, ps.dense)
		for p, sv := range ps.sparse {
			if p < want {
				grown[p] = sv
				delete(ps.sparse, p)
			}
		}
		grown[k.page] = v
		ps.dense = grown
		return
	}
	if ps.sparse == nil {
		ps.sparse = make(map[int64]int32)
	}
	ps.sparse[k.page] = v
}

func (x *residentIndex) del(k resKey) {
	ps := x.bySeg[k.seg]
	if ps == nil {
		return
	}
	if uint64(k.page) < uint64(len(ps.dense)) {
		ps.dense[k.page] = 0
		return
	}
	delete(ps.sparse, k.page)
}

// dropSeg releases a deleted segment's slab so the index does not retain
// dense slices keyed by dead segments across create/delete churn.
func (x *residentIndex) dropSeg(seg *kernel.Segment) {
	delete(x.bySeg, seg)
}
