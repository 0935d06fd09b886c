package manager

import (
	"sync"
	"sync/atomic"

	"epcm/internal/kernel"
)

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
// The dense cells are atomic: a touch (get) or in-place put on a page the
// dense prefix already covers is lock-free, so flat-combining lanes never
// rendezvous on a mutex for the common refault. Only growth of the dense
// prefix and the sparse spill take the per-segment mutex. Correctness of
// the values still relies on the manager's single-writer discipline (one
// lane executor mutates a manager at a time); the atomics make concurrent
// readers — the MRU probe, invariant checks — safe, and keep the structure
// race-clean if that discipline is ever relaxed per key.
type residentIndex struct {
	bySeg sync.Map // *kernel.Segment -> *posSlots
	// hint presizes a new segment's dense slice (PresizeResident), so a
	// working set touched in order never reallocates the prefix.
	hint int
}

// posSlots holds one segment's page -> position mapping. Positions are
// stored +1 so the zero value of a dense cell means "absent".
type posSlots struct {
	dense   atomic.Pointer[[]atomic.Int32] // pages [0, len(dense))
	growing atomic.Bool                    // a grower is copying dense under mu
	mu      sync.Mutex
	sparse  map[int64]int32 // pages beyond the dense prefix
}

const (
	// posDenseDirect is the page number below which the dense slice always
	// grows to cover a put (at most 16 KB per segment).
	posDenseDirect = 4096
	// posDenseMax caps dense growth, mirroring pageStore's bound.
	posDenseMax = 1 << 21
)

func newResidentIndex() *residentIndex {
	return &residentIndex{}
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
	if v, ok := x.bySeg.Load(seg); ok {
		return v.(*posSlots)
	}
	ps := &posSlots{}
	if x.hint > 0 {
		cells := make([]atomic.Int32, x.hint)
		ps.dense.Store(&cells)
	}
	if v, raced := x.bySeg.LoadOrStore(seg, ps); raced {
		return v.(*posSlots)
	}
	return ps
}

func (x *residentIndex) get(k resKey) (int, bool) {
	v, ok := x.bySeg.Load(k.seg)
	if !ok {
		return 0, false
	}
	ps := v.(*posSlots)
	if cells := ps.dense.Load(); cells != nil && uint64(k.page) < uint64(len(*cells)) {
		p := (*cells)[k.page].Load()
		return int(p) - 1, p != 0
	}
	ps.mu.Lock()
	p, ok := ps.sparse[k.page]
	ps.mu.Unlock()
	return int(p) - 1, ok
}

func (x *residentIndex) put(k resKey, pos int) {
	x.set(k, int32(pos)+1)
}

func (x *residentIndex) del(k resKey) {
	v, ok := x.bySeg.Load(k.seg)
	if !ok {
		return
	}
	ps := v.(*posSlots)
	if !ps.storeDense(k.page, 0) {
		ps.mu.Lock()
		delete(ps.sparse, k.page)
		ps.mu.Unlock()
	}
}

func (x *residentIndex) set(k resKey, v int32) {
	ps := x.slots(k.seg)
	if ps.storeDense(k.page, v) {
		return
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	cells := ps.dense.Load()
	cur := 0
	if cells != nil {
		cur = len(*cells)
	}
	if k.page >= 0 && k.page < posDenseMax &&
		(k.page < posDenseDirect || k.page < int64(2*cur)) {
		// Grow the dense prefix under the mutex, then publish. Doubling
		// amortizes the copies the old append-by-one loop paid per page.
		want := k.page + 1
		if d := int64(2 * cur); d > want {
			want = d
		}
		if want > posDenseMax {
			want = posDenseMax
		}
		grown := make([]atomic.Int32, want)
		ps.growing.Store(true)
		if cells != nil {
			for i := range *cells {
				grown[i].Store((*cells)[i].Load())
			}
		}
		grown[k.page].Store(v)
		ps.dense.Store(&grown)
		ps.growing.Store(false)
		return
	}
	if v == 0 {
		delete(ps.sparse, k.page)
		return
	}
	if ps.sparse == nil {
		ps.sparse = make(map[int64]int32)
	}
	ps.sparse[k.page] = v
}

// storeDense writes v into the dense cell for page if the prefix covers it,
// reporting success. The re-check closes the race with a concurrent grow: a
// grower copies cell values under the mutex, so a store into the old array
// may be missed. A store that lands while no grower is copying and the
// array pointer has not moved was either copied or needs no copy; otherwise
// wait for the grower to publish and redo the store into the new array.
// (Checking the pointer alone is not enough: the copy of this cell can
// precede the store and the publish follow the check.)
func (ps *posSlots) storeDense(page int64, v int32) bool {
	for {
		cells := ps.dense.Load()
		if cells == nil || uint64(page) >= uint64(len(*cells)) {
			return false
		}
		(*cells)[page].Store(v)
		if !ps.growing.Load() && ps.dense.Load() == cells {
			return true
		}
		ps.mu.Lock() // wait out the grower
		ps.mu.Unlock()
	}
}

// dropSeg releases a deleted segment's slab so the index does not retain
// dense slices keyed by dead segments across create/delete churn.
func (x *residentIndex) dropSeg(seg *kernel.Segment) {
	x.bySeg.Delete(seg)
}
