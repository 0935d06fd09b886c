package manager

import (
	"errors"
	"testing"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/storage"
)

type fixture struct {
	clock *sim.Clock
	k     *kernel.Kernel
	store *storage.Store
	pool  *FixedPool
	mgrs  []*Generic // made by newManager; the slot ledger of each is checked at cleanup
}

func newFixture(t *testing.T, poolFrames int64) *fixture {
	t.Helper()
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 2 << 20, CacheColors: 8, Nodes: 2, StoreData: true})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
	pool, err := NewFixedPool(k, poolFrames, 0)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{clock: &clock, k: k, store: store, pool: pool}
	t.Cleanup(func() {
		for _, g := range fx.mgrs {
			if err := g.CheckSlots(); err != nil {
				t.Error(err)
			}
		}
	})
	return fx
}

func (fx *fixture) newManager(t *testing.T, cfg Config) *Generic {
	t.Helper()
	if cfg.Source == nil {
		cfg.Source = fx.pool
	}
	g, err := NewGeneric(fx.k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fx.mgrs = append(fx.mgrs, g)
	return g
}

func TestFaultAllocatesFromPoolAndFills(t *testing.T) {
	fx := newFixture(t, 32)
	fx.store.Preload("data", 8, func(b int64, buf []byte) { buf[0] = byte(0xA0 + b) })
	fb := NewFileBacking(fx.store)
	g := fx.newManager(t, Config{Name: "m", Backing: fb})
	seg, err := g.CreateManagedSegment("data-seg")
	if err != nil {
		t.Fatal(err)
	}
	fb.BindFile(seg, "data")

	if err := fx.k.Access(seg, 3, kernel.Read); err != nil {
		t.Fatal(err)
	}
	if !seg.HasPage(3) {
		t.Fatal("page not resident after fault")
	}
	if seg.FrameAt(3).Data()[0] != 0xA3 {
		t.Fatalf("wrong fill data: %#x", seg.FrameAt(3).Data()[0])
	}
	st := g.Stats()
	if st.Faults != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if g.ResidentPages() != 1 {
		t.Fatalf("resident = %d", g.ResidentPages())
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultChargesBackingLatency(t *testing.T) {
	fx := newFixture(t, 8)
	fb := NewFileBacking(fx.store)
	g := fx.newManager(t, Config{Name: "m", Backing: fb})
	seg, _ := g.CreateManagedSegment("s")
	fb.BindFile(seg, "f")
	start := fx.clock.Now()
	if err := fx.k.Access(seg, 0, kernel.Read); err != nil {
		t.Fatal(err)
	}
	if fx.clock.Now()-start < 10*time.Millisecond {
		t.Fatalf("disk-backed fault cost only %v", fx.clock.Now()-start)
	}
}

func TestAnonymousFaultIsFast(t *testing.T) {
	fx := newFixture(t, 8)
	g := fx.newManager(t, Config{Name: "anon"})
	seg, _ := g.CreateManagedSegment("heap")
	// Pre-grant frames so the fault is minimal.
	if _, err := fx.pool.RequestFrames(g, 4, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	start := fx.clock.Now()
	if err := fx.k.Access(seg, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	got := fx.clock.Now() - start
	// The V++ minimal fault: no zeroing, no I/O.
	if got != fx.k.Cost().VppMinimalFaultSameProcess() {
		t.Fatalf("anonymous first-touch cost %v, want %v", got, fx.k.Cost().VppMinimalFaultSameProcess())
	}
}

func TestClockReclaimSecondChance(t *testing.T) {
	fx := newFixture(t, 16)
	g := fx.newManager(t, Config{Name: "m"})
	seg, _ := g.CreateManagedSegment("s")
	for p := int64(0); p < 4; p++ {
		if err := fx.k.Access(seg, p, kernel.Read); err != nil {
			t.Fatal(err)
		}
	}
	// All pages referenced. Re-touch pages 0 and 1 only after clearing.
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 0, 4, 0, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	if err := fx.k.Access(seg, 0, kernel.Read); err != nil {
		t.Fatal(err)
	}
	if err := fx.k.Access(seg, 1, kernel.Read); err != nil {
		t.Fatal(err)
	}
	// Reclaim 2: must take the unreferenced pages 2 and 3.
	n, err := g.Reclaim(2, phys.AnyFrame())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("reclaimed %d, want 2", n)
	}
	if seg.HasPage(2) || seg.HasPage(3) {
		t.Fatal("unreferenced pages survived")
	}
	if !seg.HasPage(0) || !seg.HasPage(1) {
		t.Fatal("referenced pages were evicted")
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestReclaimSkipsPinned(t *testing.T) {
	fx := newFixture(t, 16)
	g := fx.newManager(t, Config{Name: "m"})
	seg, _ := g.CreateManagedSegment("s")
	for p := int64(0); p < 3; p++ {
		if err := fx.k.Access(seg, p, kernel.Read); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 0, 3, kernel.FlagPinned, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	n, err := g.Reclaim(3, phys.AnyFrame())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("reclaimed %d pinned pages", n)
	}
}

func TestFastRefaultAvoidsIO(t *testing.T) {
	fx := newFixture(t, 8)
	fb := NewFileBacking(fx.store)
	fx.store.Preload("f", 4, func(b int64, buf []byte) { buf[0] = byte(b + 1) })
	g := fx.newManager(t, Config{Name: "m", Backing: fb})
	seg, _ := g.CreateManagedSegment("s")
	fb.BindFile(seg, "f")
	if err := fx.k.Access(seg, 2, kernel.Read); err != nil {
		t.Fatal(err)
	}
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 2, 1, 0, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Reclaim(1, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	if seg.HasPage(2) {
		t.Fatal("page not reclaimed")
	}
	reads := fx.store.Reads()
	if err := fx.k.Access(seg, 2, kernel.Read); err != nil {
		t.Fatal(err)
	}
	if fx.store.Reads() != reads {
		t.Fatal("fast refault performed I/O")
	}
	if seg.FrameAt(2).Data()[0] != 3 {
		t.Fatal("fast refault restored wrong data")
	}
	if g.Stats().FastRefaults != 1 {
		t.Fatalf("FastRefaults = %d", g.Stats().FastRefaults)
	}
}

func TestDiscardableSkipsWriteback(t *testing.T) {
	fx := newFixture(t, 8)
	fb := NewFileBacking(fx.store)
	g := fx.newManager(t, Config{Name: "m", Backing: fb})
	seg, _ := g.CreateManagedSegment("s")
	fb.BindFile(seg, "f")
	if err := fx.k.Access(seg, 0, kernel.Write); err != nil { // dirty
		t.Fatal(err)
	}
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 0, 1, kernel.FlagDiscardable, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	writes := fx.store.Writes()
	if _, err := g.Reclaim(1, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	if fx.store.Writes() != writes {
		t.Fatal("discardable page was written back")
	}
	if g.Stats().Discards != 1 || g.Stats().Writebacks != 0 {
		t.Fatalf("stats = %+v", g.Stats())
	}
	// A refault must go through the fill path (no stale association).
	if err := fx.k.Access(seg, 0, kernel.Read); err != nil {
		t.Fatal(err)
	}
	if g.Stats().FastRefaults != 0 {
		t.Fatal("discarded page came back via fast refault")
	}
}

func TestIgnoreDiscardableAblation(t *testing.T) {
	fx := newFixture(t, 8)
	fb := NewFileBacking(fx.store)
	g := fx.newManager(t, Config{Name: "m", Backing: fb, IgnoreDiscardable: true})
	seg, _ := g.CreateManagedSegment("s")
	fb.BindFile(seg, "f")
	if err := fx.k.Access(seg, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 0, 1, kernel.FlagDiscardable, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Reclaim(1, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	if g.Stats().Writebacks != 1 || g.Stats().Discards != 0 {
		t.Fatalf("ablation should write back: %+v", g.Stats())
	}
}

func TestDirtyEvictionWritesBackAndPersists(t *testing.T) {
	fx := newFixture(t, 8)
	fb := NewFileBacking(fx.store)
	g := fx.newManager(t, Config{Name: "m", Backing: fb})
	seg, _ := g.CreateManagedSegment("s")
	fb.BindFile(seg, "f")
	if err := fx.k.Access(seg, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	seg.FrameAt(0).Data()[7] = 0x77
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 0, 1, 0, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Reclaim(1, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	if g.Stats().Writebacks != 1 {
		t.Fatalf("stats = %+v", g.Stats())
	}
	buf := make([]byte, 4096)
	if err := fx.store.Fetch("f", 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[7] != 0x77 {
		t.Fatal("writeback lost data")
	}
}

func TestCopyOnWriteThroughManager(t *testing.T) {
	fx := newFixture(t, 16)
	g := fx.newManager(t, Config{Name: "m"})
	file, _ := g.CreateManagedSegment("file")
	space, _ := g.CreateManagedSegment("space")
	if err := fx.k.Access(file, 0, kernel.Write); err != nil { // materialize source
		t.Fatal(err)
	}
	file.FrameAt(0).Data()[0] = 0xAA
	if err := fx.k.BindRegion(kernel.AppCred, space, 0, 1, file, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := fx.k.Access(space, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	if space.FrameAt(0).Data()[0] != 0xAA {
		t.Fatal("COW copy has wrong contents")
	}
	space.FrameAt(0).Data()[0] = 0xBB
	if file.FrameAt(0).Data()[0] != 0xAA {
		t.Fatal("source corrupted")
	}
}

func TestColoringConstraint(t *testing.T) {
	fx := newFixture(t, 64)
	g, err := NewColoring(fx.k, Config{Name: "color", Source: fx.pool}, 8)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := g.CreateManagedSegment("s")
	for p := int64(0); p < 16; p++ {
		if err := fx.k.Access(seg, p, kernel.Read); err != nil {
			t.Fatal(err)
		}
		if got, want := seg.FrameAt(p).Color(), int(p%8); got != want {
			t.Fatalf("page %d color %d, want %d", p, got, want)
		}
	}
}

func TestPlacementConstraint(t *testing.T) {
	// The default fixture pool covers only node 0 (PFNs from 0); build one
	// straddling the node boundary (512 frames over 2 nodes => 256 each).
	fx := newFixture(t, 8)
	pool, err := NewFixedPool(fx.k, 128, 192) // PFNs 192..319: both nodes
	if err != nil {
		t.Fatal(err)
	}
	fx.pool = pool
	nodeOf := func(f kernel.Fault) int {
		if f.Page < 8 {
			return 0
		}
		return 1
	}
	g, err := NewPlacement(fx.k, Config{Name: "place", Source: fx.pool}, nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := g.CreateManagedSegment("s")
	for p := int64(0); p < 16; p++ {
		if err := fx.k.Access(seg, p, kernel.Read); err != nil {
			t.Fatal(err)
		}
		want := 0
		if p >= 8 {
			want = 1
		}
		if got := seg.FrameAt(p).Node(); got != want {
			t.Fatalf("page %d on node %d, want %d", p, got, want)
		}
	}
}

func TestExhaustionReclaimsThenFails(t *testing.T) {
	fx := newFixture(t, 4)
	g := fx.newManager(t, Config{Name: "m", RequestBatch: 2})
	seg, _ := g.CreateManagedSegment("s")
	// Touch more pages than frames exist: reclamation keeps it going.
	for p := int64(0); p < 12; p++ {
		if err := fx.k.Access(seg, p, kernel.Write); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
	}
	if g.Stats().Reclaims == 0 {
		t.Fatal("no reclamation under memory pressure")
	}
	// Now pin everything resident and exhaust: allocation must fail.
	for _, p := range seg.Pages() {
		if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, p, 1, kernel.FlagPinned, 0); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	for p := int64(100); p < 120 && err == nil; p++ {
		err = fx.k.Access(seg, p, kernel.Write)
	}
	if !errors.Is(err, ErrNoMemory) {
		t.Fatalf("err = %v, want ErrNoMemory", err)
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestReturnFreeFrames(t *testing.T) {
	fx := newFixture(t, 16)
	g := fx.newManager(t, Config{Name: "m"})
	if _, err := fx.pool.RequestFrames(g, 8, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	left := fx.pool.FramesLeft()
	n, err := g.ReturnFreeFrames(5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("returned %d, want 5", n)
	}
	if fx.pool.FramesLeft() != left+5 {
		t.Fatalf("pool has %d, want %d", fx.pool.FramesLeft(), left+5)
	}
	if g.FreeFrames() != 3 {
		t.Fatalf("manager keeps %d, want 3", g.FreeFrames())
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestDropSegmentPages(t *testing.T) {
	fx := newFixture(t, 16)
	g := fx.newManager(t, Config{Name: "m"})
	idx, _ := g.CreateManagedSegment("index")
	other, _ := g.CreateManagedSegment("other")
	for p := int64(0); p < 4; p++ {
		if err := fx.k.Access(idx, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.k.Access(other, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	// Mark the index discardable (regenerable) and drop it wholesale.
	if err := fx.k.ModifyPageFlags(kernel.AppCred, idx, 0, 4, kernel.FlagDiscardable, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.DropSegmentPages(idx); err != nil {
		t.Fatal(err)
	}
	if idx.PageCount() != 0 {
		t.Fatal("index pages survived drop")
	}
	if !other.HasPage(0) {
		t.Fatal("drop touched another segment")
	}
	if g.Stats().Discards != 4 {
		t.Fatalf("discards = %d", g.Stats().Discards)
	}
	if g.FreeFrames() < 4 {
		t.Fatalf("frames not recovered: %d", g.FreeFrames())
	}
}

func TestSegmentDeletedReclaimsFrames(t *testing.T) {
	fx := newFixture(t, 16)
	g := fx.newManager(t, Config{Name: "m"})
	seg, _ := g.CreateManagedSegment("s")
	for p := int64(0); p < 3; p++ {
		if err := fx.k.Access(seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
	}
	before := g.FreeFrames()
	if err := fx.k.DeleteSegment(kernel.AppCred, seg); err != nil {
		t.Fatal(err)
	}
	if g.FreeFrames() != before+3 {
		t.Fatalf("free frames %d, want %d", g.FreeFrames(), before+3)
	}
	if g.ResidentPages() != 0 {
		t.Fatalf("resident = %d", g.ResidentPages())
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// The prefetch manager overlaps I/O with computation: a sequential scan
// with compute per page longer than the page fetch time runs at compute
// speed, while the demand-paging manager pays compute + I/O serially.
func TestPrefetchOverlapsIO(t *testing.T) {
	const pages = 64
	compute := 20 * time.Millisecond // > 16ms disk fetch

	run := func(depth int) time.Duration {
		fx := newFixture(t, 128)
		fx.store.Preload("matrix", pages, nil)
		var g *Generic
		var pf *Prefetch
		if depth > 0 {
			dev := NewAsyncDevice(fx.clock, storage.LocalDisk())
			var err error
			pf, err = NewPrefetch(fx.k, Config{Name: "pf", Source: fx.pool}, dev, fx.store, depth)
			if err != nil {
				t.Fatal(err)
			}
			g = pf.Generic
		} else {
			fb := NewFileBacking(fx.store)
			g = fx.newManager(t, Config{Name: "demand", Backing: fb})
		}
		seg, _ := g.CreateManagedSegment("matrix-seg")
		if pf != nil {
			pf.BindFile(seg, "matrix")
		} else {
			g.cfg.Backing.(*FileBacking).BindFile(seg, "matrix")
		}
		start := fx.clock.Now()
		for p := int64(0); p < pages; p++ {
			if err := fx.k.Access(seg, p, kernel.Read); err != nil {
				t.Fatal(err)
			}
			fx.clock.Advance(compute)
		}
		return fx.clock.Now() - start
	}

	demand := run(0)
	prefetch := run(4)
	if prefetch >= demand {
		t.Fatalf("prefetch (%v) not faster than demand paging (%v)", prefetch, demand)
	}
	// With compute > fetch latency, prefetch should approach pure compute
	// time: pages*compute plus the first (cold) fetch and small overheads.
	pureCompute := time.Duration(pages) * compute
	if prefetch > pureCompute+pureCompute/10 {
		t.Fatalf("prefetch run %v, want near %v", prefetch, pureCompute)
	}
	// Demand paging pays the full serial I/O: at least compute + fetch.
	if demand < pureCompute+time.Duration(pages-1)*15*time.Millisecond {
		t.Fatalf("demand run %v suspiciously fast", demand)
	}
}

func TestPrefetchCountsHits(t *testing.T) {
	fx := newFixture(t, 64)
	fx.store.Preload("f", 16, nil)
	dev := NewAsyncDevice(fx.clock, storage.LocalDisk())
	pf, err := NewPrefetch(fx.k, Config{Name: "pf", Source: fx.pool}, dev, fx.store, 4)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := pf.CreateManagedSegment("s")
	pf.BindFile(seg, "f")
	for p := int64(0); p < 16; p++ {
		if err := fx.k.Access(seg, p, kernel.Read); err != nil {
			t.Fatal(err)
		}
		fx.clock.Advance(50 * time.Millisecond)
	}
	if pf.DemandFetches() != 1 {
		t.Fatalf("demand fetches = %d, want 1 (the cold start)", pf.DemandFetches())
	}
	if pf.PrefetchHits() != 15 {
		t.Fatalf("prefetch hits = %d, want 15", pf.PrefetchHits())
	}
}

// Property-style stress: random fault/reclaim interleavings keep the
// manager's bookkeeping and the kernel's frame accounting consistent.
func TestManagerStressConsistency(t *testing.T) {
	fx := newFixture(t, 48)
	g := fx.newManager(t, Config{Name: "stress", RequestBatch: 4})
	segs := make([]*kernel.Segment, 3)
	for i := range segs {
		s, err := g.CreateManagedSegment("s")
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = s
	}
	rng := sim.NewRNG(7)
	for step := 0; step < 3000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			s := segs[rng.Intn(len(segs))]
			acc := kernel.Read
			if rng.Bool(0.5) {
				acc = kernel.Write
			}
			if err := fx.k.Access(s, int64(rng.Intn(40)), acc); err != nil && !errors.Is(err, ErrNoMemory) {
				t.Fatalf("step %d access: %v", step, err)
			}
		case 6, 7:
			if _, err := g.Reclaim(rng.Intn(4)+1, phys.AnyFrame()); err != nil {
				t.Fatalf("step %d reclaim: %v", step, err)
			}
		case 8:
			if _, err := g.ReturnFreeFrames(rng.Intn(3)); err != nil {
				t.Fatalf("step %d return: %v", step, err)
			}
		case 9:
			s := segs[rng.Intn(len(segs))]
			pages := s.Pages()
			if len(pages) > 0 {
				p := pages[rng.Intn(len(pages))]
				set := kernel.PageFlags(0)
				if rng.Bool(0.3) {
					set |= kernel.FlagDiscardable
				}
				if err := fx.k.ModifyPageFlags(kernel.AppCred, s, p, 1, set, kernel.FlagReferenced); err != nil {
					t.Fatalf("step %d flags: %v", step, err)
				}
			}
		}
		if step%500 == 0 {
			if err := fx.k.CheckFrameConservation(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
	if got := g.FreeFrames() + g.ResidentPages() + fx.pool.FramesLeft(); got > 48 {
		t.Fatalf("manager+pool account for %d frames, pool had 48", got)
	}
}

// The specializable replacement-selection routine (§2.2): an MRU policy
// beats the default clock on a cyclic sequential scan larger than memory —
// the application knowledge only its own manager can apply.
func TestSelectVictimMRUBeatsClockOnCyclicScan(t *testing.T) {
	const dataPages, memFrames, passes = 32, 16, 4
	run := func(policy Policy) (faults int64) {
		fx := newFixture(t, memFrames)
		cfg := Config{Name: "scan", Backing: NewSwapBacking(fx.store), RequestBatch: 4, Policy: policy}
		g := fx.newManager(t, cfg)
		seg, _ := g.CreateManagedSegment("data")
		for pass := 0; pass < passes; pass++ {
			for p := int64(0); p < dataPages; p++ {
				if err := fx.k.Access(seg, p, kernel.Read); err != nil {
					t.Fatalf("pass %d page %d: %v", pass, p, err)
				}
			}
		}
		return g.Stats().Faults
	}
	clockFaults := run(nil)
	mruFaults := run(NewMRUPolicy())
	// Clock/LRU on a cyclic scan evicts what is needed next: ~every access
	// faults after warmup. MRU keeps a stable prefix resident.
	if mruFaults >= clockFaults {
		t.Fatalf("MRU (%d faults) should beat clock (%d faults) on a cyclic scan", mruFaults, clockFaults)
	}
	// Clock faults on essentially every access (the LRU pathology); MRU
	// keeps a stable prefix resident, so its steady-state fault rate is
	// (data-mem)/data per pass. With 32 pages over 16 frames that bounds
	// the ratio near 0.72.
	if mruFaults*4 > clockFaults*3 {
		t.Fatalf("MRU advantage too small: %d vs %d", mruFaults, clockFaults)
	}
}

// With every resident page pinned the MRU policy has no victim: Reclaim
// declines without error and takes nothing.
func TestSelectVictimDecline(t *testing.T) {
	fx := newFixture(t, 8)
	g := fx.newManager(t, Config{Name: "m", Policy: NewMRUPolicy()})
	seg, _ := g.CreateManagedSegment("s")
	for p := int64(0); p < 4; p++ {
		if err := fx.k.Access(seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 0, 4, kernel.FlagPinned, 0); err != nil {
		t.Fatal(err)
	}
	n, err := g.Reclaim(2, phys.AnyFrame())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("declining policy reclaimed %d", n)
	}
}

// MRU takes the highest-numbered page that is not pinned: with pages 2 and
// 3 pinned, two reclaims take pages 1 and 0, in that order.
func TestSelectVictimSkipsPinned(t *testing.T) {
	fx := newFixture(t, 8)
	g := fx.newManager(t, Config{Name: "m", Policy: NewMRUPolicy()})
	seg, _ := g.CreateManagedSegment("s")
	for p := int64(0); p < 4; p++ {
		if err := fx.k.Access(seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 2, 2, kernel.FlagPinned, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{1, 0} {
		if n, err := g.Reclaim(1, phys.AnyFrame()); err != nil || n != 1 {
			t.Fatalf("Reclaim = %d, %v; want 1, nil", n, err)
		}
		if seg.HasPage(want) {
			t.Fatalf("page %d still resident; MRU should have taken it", want)
		}
	}
	for p := int64(2); p < 4; p++ {
		if !seg.HasPage(p) {
			t.Fatalf("pinned page %d was reclaimed", p)
		}
	}
	if n, err := g.Reclaim(1, phys.AnyFrame()); err != nil || n != 0 {
		t.Fatalf("Reclaim with only pinned pages left = %d, %v; want 0, nil", n, err)
	}
}

// Asynchronous writeback through the prefetch manager: evicting dirty
// pages must not block the application — the data goes out on the device
// timeline.
func TestPrefetchAsyncWritebackDoesNotBlock(t *testing.T) {
	fx := newFixture(t, 64)
	dev := NewAsyncDevice(fx.clock, storage.LocalDisk())
	pf, err := NewPrefetch(fx.k, Config{Name: "pf", Source: fx.pool}, dev, fx.store, 4)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := pf.CreateManagedSegment("data")
	pf.BindFile(seg, "data")
	for p := int64(0); p < 8; p++ {
		if err := fx.k.Access(seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
		seg.FrameAt(p).Data()[0] = byte(p)
	}
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 0, 8, 0, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	before := fx.clock.Now()
	if _, err := pf.Reclaim(4, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	// The reclaim itself charges only kernel ops, not disk time: far less
	// than one 15ms disk write, let alone four.
	if got := fx.clock.Now() - before; got > 10*time.Millisecond {
		t.Fatalf("async writeback blocked for %v", got)
	}
	// But the data did reach the store: four pages were persisted.
	if fx.store.Size("data") == 0 {
		t.Fatal("async writeback never persisted anything")
	}
	if dev.Requests() < 4 {
		t.Fatalf("device saw %d requests, want >= 4", dev.Requests())
	}
}

// PageInContiguous takes the lowest-numbered run of free slots that fits,
// whatever order the free list holds them in (it used to take whichever run
// a map iteration reached first), and its bookkeeping consumes exactly that
// run.
func TestPageInContiguousChoosesLowestRun(t *testing.T) {
	// Free slots 0..15 minus the holes: runs of three start at 4, 5, 9,
	// 10, 11, 12 and 13; the lowest is 4.
	holes := map[int64]bool{2: true, 3: true, 7: true, 8: true}
	const wantStart, n = 4, 3
	for round := 0; round < 64; round++ {
		fx := newFixture(t, 32)
		g := fx.newManager(t, Config{Name: "m"})
		seg, err := g.CreateManagedSegment("seg")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := g.RequestFreshRun(16); err != nil || got != 16 {
			t.Fatalf("RequestFreshRun = %d, %v", got, err)
		}
		// Punch the holes: those frames go back to the pool.
		for i := 0; i < len(g.slots.listed); {
			if slot := g.slots.listed[i].slot; holes[slot] {
				g.slots.take(i)
				if err := fx.pool.ReturnFrames(g, []int64{slot}); err != nil {
					t.Fatal(err)
				}
				g.slots.release(slot)
				continue
			}
			i++
		}
		// Same set, another insertion order every round.
		rng := sim.NewRNG(uint64(round) + 1)
		for i := len(g.slots.listed) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			g.slots.listed[i], g.slots.listed[j] = g.slots.listed[j], g.slots.listed[i]
		}
		before := len(g.slots.listed)
		ok, err := g.PageInContiguous(seg, 100, n)
		if err != nil || !ok {
			t.Fatalf("round %d: PageInContiguous = %v, %v", round, ok, err)
		}
		consumed := g.slots.empty[len(g.slots.empty)-n:]
		for i, s := range consumed {
			if s != wantStart+int64(i) {
				t.Fatalf("round %d: consumed slots %v, want the run at %d", round, consumed, wantStart)
			}
		}
		if len(g.slots.listed) != before-n || g.FreeFrames() != before-n {
			t.Fatalf("round %d: %d free slots (%d counted) after consuming %d of %d",
				round, len(g.slots.listed), g.FreeFrames(), n, before)
		}
		left := make(map[int64]bool)
		for _, fs := range g.slots.listed {
			if left[fs.slot] || holes[fs.slot] || (fs.slot >= wantStart && fs.slot < wantStart+n) {
				t.Fatalf("round %d: slot %d wrongly on the free list", round, fs.slot)
			}
			left[fs.slot] = true
		}
		for p := int64(100); p < 100+n; p++ {
			if !seg.HasPage(p) {
				t.Fatalf("round %d: page %d not resident", round, p)
			}
		}
		if g.ResidentPages() != n {
			t.Fatalf("round %d: resident = %d", round, g.ResidentPages())
		}
	}
}

// refusingSource is a FrameSource whose ReturnFrames always fails.
type refusingSource struct{ FrameSource }

var errReturnRefused = errors.New("return refused")

func (refusingSource) ReturnFrames(*Generic, []int64) error { return errReturnRefused }

// TestReturnFreeFramesRestoresOnError: when the source refuses the return,
// the frames are still in the free segment, so the manager must go on
// listing them — unassociated and fast-refault ones alike — instead of
// leaving them untracked until an Adopt.
func TestReturnFreeFramesRestoresOnError(t *testing.T) {
	fx := newFixture(t, 8)
	fb := NewFileBacking(fx.store)
	fx.store.Preload("f", 4, func(b int64, buf []byte) { buf[0] = byte(b + 1) })
	g := fx.newManager(t, Config{Name: "m", Backing: fb, Source: refusingSource{fx.pool}})
	seg, _ := g.CreateManagedSegment("s")
	fb.BindFile(seg, "f")
	// Three unassociated free frames and one that remembers page 2.
	if _, err := fx.pool.RequestFrames(g, 4, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	if err := fx.k.Access(seg, 2, kernel.Read); err != nil {
		t.Fatal(err)
	}
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 2, 1, 0, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Reclaim(1, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	free := g.FreeFrames()
	if free != 4 {
		t.Fatalf("free frames before the return = %d, want 4", free)
	}

	n, err := g.ReturnFreeFrames(free) // every frame: breaks the association too
	if !errors.Is(err, errReturnRefused) || n != 0 {
		t.Fatalf("ReturnFreeFrames = %d, %v; want 0 and the source's refusal", n, err)
	}
	if g.FreeFrames() != free {
		t.Fatalf("free frames after a refused return = %d, want %d", g.FreeFrames(), free)
	}
	if got := g.free.PageCount(); got != free {
		t.Fatalf("free segment holds %d frames, want %d", got, free)
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckSlots(); err != nil { // the list, its count and the recall index agree
		t.Fatal(err)
	}
	// The association survived: page 2 comes back without I/O.
	reads := fx.store.Reads()
	if err := fx.k.Access(seg, 2, kernel.Read); err != nil {
		t.Fatal(err)
	}
	if fx.store.Reads() != reads || g.Stats().FastRefaults != 1 {
		t.Fatalf("re-fault after a refused return: %d reads, %d fast refaults; want 0 and 1",
			fx.store.Reads()-reads, g.Stats().FastRefaults)
	}
	// And the three unassociated frames still serve faults.
	for p := int64(0); p < 4; p++ {
		if err := fx.k.Access(seg, p, kernel.Read); err != nil {
			t.Fatalf("fault on page %d after a refused return: %v", p, err)
		}
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// failingRunSource reserves a refill's slots and then fails the grant the
// way the SPCM does when the kernel rejects its migration: reservation
// closed with the error, error returned.
type failingRunSource struct{ FrameSource }

var errGrantFailed = errors.New("grant failed")

func (failingRunSource) RequestContiguous(*Generic, int) (int, error) { return 0, nil }

func (failingRunSource) RequestContiguousRuns(g *Generic, n, count int) (int, error) {
	g.Granted(g.ReserveSlots(nil, n*count), errGrantFailed)
	return 0, errGrantFailed
}

// TestFailedRunRefillListsEachSlotOnce: a refill that staged a recycled run
// and then failed must leave that run on the recycled list only — released
// into the empty list as well, a later per-page grant could land inside a run
// the next refill plans over — while the fresh tail becomes ordinary empty
// slots.
func TestFailedRunRefillListsEachSlotOnce(t *testing.T) {
	fx := newFixture(t, 8)
	g := fx.newManager(t, Config{Name: "m", ExtentOrder: 2})
	// One recycled run at 16 under a high-water mark of 32, the rest skipped.
	g.slots.recycled, g.slots.next, g.slots.skipped = []int64{16}, 32, 28
	if _, ok, err := g.takeExtentRun(failingRunSource{fx.pool}); ok || !errors.Is(err, errGrantFailed) {
		t.Fatalf("takeExtentRun = %v, %v; want a failed refill", ok, err)
	}
	if len(g.slots.recycled) != 1 || g.slots.recycled[0] != 16 {
		t.Fatalf("recycled runs = %v, want [16]", g.slots.recycled)
	}
	if want := (extentMagazineRuns - 1) * 4; len(g.slots.empty) != want {
		t.Fatalf("%d empty slots, want the %d fresh ones", len(g.slots.empty), want)
	}
	if err := g.CheckSlots(); err != nil { // no slot of the recycled run is empty too
		t.Fatal(err)
	}
}

// TestEnsureFreeBreaksAssociationsInOrder drives EnsureFree over a free list
// of 4 096 reclaimed pages, every one still associated with the page it came
// from and with the frame source dry, so the only way to an unassociated
// frame is breaking associations: exactly as many as asked for are broken,
// oldest first, and the recall index keeps exactly the rest.
func TestEnsureFreeBreaksAssociationsInOrder(t *testing.T) {
	const pages = 4096
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: (pages + 64) * 4096})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	pool, err := NewFixedPool(k, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFileBacking(storage.NewStore(&clock, storage.LocalDisk(), 4096))
	g, err := NewGeneric(k, Config{Name: "m", Backing: fb, Source: pool, RequestBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := g.CreateManagedSegment("s")
	if err != nil {
		t.Fatal(err)
	}
	fb.BindFile(seg, "f")
	for p := int64(0); p < pages; p++ {
		if err := k.Access(seg, p, kernel.Read); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := g.Reclaim(pages, phys.AnyFrame()); err != nil || n != pages {
		t.Fatalf("Reclaim = %d, %v; want all %d pages", n, err, pages)
	}
	check := func(broken int) {
		t.Helper()
		if len(g.slots.listed) != pages {
			t.Fatalf("%d free slots, want %d", len(g.slots.listed), pages)
		}
		for i, fs := range g.slots.listed {
			at, indexed := g.slots.recall[fs.from]
			switch {
			case i < broken && (fs.recall || indexed):
				t.Fatalf("free slot %d still associated (recall %v, indexed %v) with %d broken", i, fs.recall, indexed, broken)
			case i >= broken && (!fs.recall || !indexed || at != i):
				t.Fatalf("free slot %d lost its association (recall %v, indexed %v at %d) with %d broken", i, fs.recall, indexed, at, broken)
			}
		}
		if len(g.slots.recall) != pages-broken {
			t.Fatalf("recall index holds %d pages, want %d", len(g.slots.recall), pages-broken)
		}
		if err := g.CheckSlots(); err != nil {
			t.Fatal(err)
		}
	}
	check(0)
	for _, n := range []int{1, 1000, 1000, pages} {
		if err := g.EnsureFree(n); err != nil {
			t.Fatalf("EnsureFree(%d): %v", n, err)
		}
		check(n)
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}
