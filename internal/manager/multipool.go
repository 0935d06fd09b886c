package manager

import (
	"fmt"
	"sort"

	"epcm/internal/kernel"
	"epcm/internal/phys"
)

// MultiPool is the DBMS-flavoured segment manager of §2.2: "A DBMS segment
// manager may have a different free page segment for each of indices,
// views and relations, making it easier to track memory allocation to
// these different types of data." It routes each managed segment to a
// named pool; every pool is a complete Generic manager with its own
// free-page segment, backing, replacement clock and statistics. A shared
// frame source (the SPCM) feeds all pools, so the division is an
// accounting and policy boundary, not a partition of physical memory.
//
// It also implements the §2.2 scratch-stealing policy: a pool may be
// marked as scratch ("temporary index segments as free-page segments ...
// simply steal from these scratch areas rather than maintain explicit free
// areas"), in which case other pools reclaim from it first when the source
// runs dry.
type MultiPool struct {
	k       *kernel.Kernel
	name    string
	pools   map[string]*Generic
	byScope map[kernel.SegID]string // segment -> pool name
	scratch map[string]bool
	order   []string // creation order, for deterministic iteration
}

var _ kernel.Manager = (*MultiPool)(nil)

// NewMultiPool creates an empty multi-pool manager.
func NewMultiPool(k *kernel.Kernel, name string) *MultiPool {
	return &MultiPool{
		k:       k,
		name:    name,
		pools:   make(map[string]*Generic),
		byScope: make(map[kernel.SegID]string),
		scratch: make(map[string]bool),
	}
}

// ManagerName implements kernel.Manager.
func (m *MultiPool) ManagerName() string { return m.name }

// Delivery implements kernel.Manager: DBMS managers run in-process.
func (m *MultiPool) Delivery() kernel.DeliveryMode { return kernel.DeliverSameProcess }

// AddPool creates a named pool with its own configuration. The pool's
// manager is internal: the kernel sees only the MultiPool. The pool's
// frame source is wrapped so that when the shared source runs dry, the
// pool steals from the manager's scratch pools (and then its largest
// sibling) *before* evicting its own pages — the §2.2 policy of treating
// temporary index segments as free areas.
func (m *MultiPool) AddPool(poolName string, cfg Config) (*Generic, error) {
	if _, dup := m.pools[poolName]; dup {
		return nil, fmt.Errorf("manager %s: duplicate pool %q", m.name, poolName)
	}
	cfg.Name = m.name + "." + poolName
	if cfg.Source != nil {
		cfg.Source = &stealSource{mp: m, inner: cfg.Source}
	}
	g, err := NewGeneric(m.k, cfg)
	if err != nil {
		return nil, err
	}
	m.pools[poolName] = g
	m.order = append(m.order, poolName)
	return g, nil
}

// stealSource chains the shared frame source with donor-pool stealing.
type stealSource struct {
	mp    *MultiPool
	inner FrameSource
}

var _ FrameSource = (*stealSource)(nil)

// RequestFrames implements FrameSource.
func (s *stealSource) RequestFrames(g *Generic, n int, constraint phys.Range) (int, error) {
	got, err := s.inner.RequestFrames(g, n, constraint)
	if err != nil || got >= n {
		return got, err
	}
	stolen, err := s.mp.stealInto(g, n-got, constraint)
	return got + stolen, err
}

// ReturnFrames implements FrameSource.
func (s *stealSource) ReturnFrames(g *Generic, slots []int64) error {
	return s.inner.ReturnFrames(g, slots)
}

// MarkScratch designates a pool as a scratch area whose pages other pools
// may steal under pressure.
func (m *MultiPool) MarkScratch(poolName string) { m.scratch[poolName] = true }

// Pool returns a pool by name.
func (m *MultiPool) Pool(poolName string) (*Generic, bool) {
	g, ok := m.pools[poolName]
	return g, ok
}

// Manage places a segment under the named pool.
func (m *MultiPool) Manage(seg *kernel.Segment, poolName string) error {
	g, ok := m.pools[poolName]
	if !ok {
		return fmt.Errorf("manager %s: no pool %q", m.name, poolName)
	}
	m.k.SetSegmentManager(seg, m)
	m.byScope[seg.ID()] = poolName
	g.managed[seg.ID()] = seg
	return nil
}

// CreateManagedSegment creates a segment under the named pool.
func (m *MultiPool) CreateManagedSegment(name, poolName string) (*kernel.Segment, error) {
	seg, err := m.k.CreateSegment(name, 1)
	if err != nil {
		return nil, err
	}
	if err := m.Manage(seg, poolName); err != nil {
		return nil, err
	}
	return seg, nil
}

// poolOf returns the pool responsible for a segment.
func (m *MultiPool) poolOf(seg *kernel.Segment) (*Generic, error) {
	pn, ok := m.byScope[seg.ID()]
	if !ok {
		return nil, fmt.Errorf("manager %s: segment %v not under any pool", m.name, seg)
	}
	return m.pools[pn], nil
}

// HandleFault implements kernel.Manager: route to the owning pool. The
// pool's allocation path steals from sibling pools through its wrapped
// frame source before falling back to self-eviction.
func (m *MultiPool) HandleFault(f kernel.Fault) error {
	g, err := m.poolOf(f.Seg)
	if err != nil {
		return err
	}
	return g.HandleFault(f)
}

// stealInto reclaims up to n constraint-satisfying frames from donor pools
// and migrates them into g's free-page segment, reporting how many moved.
func (m *MultiPool) stealInto(g *Generic, n int, constraint phys.Range) (int, error) {
	donors := m.donorOrder(g)
	moved := 0
	for _, donor := range donors {
		if moved >= n {
			break
		}
		if _, err := donor.Reclaim(n-moved, constraint); err != nil {
			return moved, err
		}
		// Collect admitting donor free frames, then move them all as one
		// batched migration instead of a kernel call per frame.
		var take []int64
		for i := 0; moved+len(take) < n && i < len(donor.slots.listed); i++ {
			if fs := donor.slots.listed[i]; constraint.Admits(fs.frame) {
				take = append(take, fs.slot)
			}
		}
		if len(take) == 0 {
			continue
		}
		slots := g.ReserveSlots(nil, len(take))
		err := m.k.MigratePagesBatch(kernel.AppCred, donor.free, g.free, kernel.CoalesceRanges(take, slots), 0, 0)
		if g.slots.close(slots, err); err != nil {
			return moved, err
		}
		for _, t := range take {
			donor.slots.unlistSlot(t)
		}
		moved += len(take)
	}
	return moved, nil
}

// donorOrder lists donor pools: scratch pools first, then by held pages
// descending, excluding the requester.
func (m *MultiPool) donorOrder(g *Generic) []*Generic {
	var scratch, rest []*Generic
	for _, pn := range m.order {
		p := m.pools[pn]
		if p == g {
			continue
		}
		if m.scratch[pn] {
			scratch = append(scratch, p)
		} else {
			rest = append(rest, p)
		}
	}
	sort.SliceStable(rest, func(i, j int) bool {
		return rest[i].ResidentPages()+rest[i].FreeFrames() > rest[j].ResidentPages()+rest[j].FreeFrames()
	})
	return append(scratch, rest...)
}

// SegmentDeleted implements kernel.Manager.
func (m *MultiPool) SegmentDeleted(seg *kernel.Segment) {
	if g, err := m.poolOf(seg); err == nil {
		g.SegmentDeleted(seg)
	}
	delete(m.byScope, seg.ID())
}

// Usage reports pages held per pool — the "easier to track memory
// allocation to these different types of data" payoff.
func (m *MultiPool) Usage() map[string]int {
	out := make(map[string]int, len(m.pools))
	for pn, g := range m.pools {
		out[pn] = g.ResidentPages() + g.FreeFrames()
	}
	return out
}
