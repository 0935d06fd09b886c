package core

import (
	"testing"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/spcm"
	"epcm/internal/storage"
)

// boot brings up a small system. When the test ends, every frame must be
// accounted for and the SPCM's market and slot ledgers must hold.
func boot(t *testing.T) *System {
	t.Helper()
	s, err := Boot(Config{MemoryBytes: 8 << 20, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Kernel.CheckFrameConservation(); err != nil {
			t.Error(err)
		}
		if err := s.SPCM.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
	return s
}

func TestBootDefaults(t *testing.T) {
	s := boot(t)
	if s.Mem.NumFrames() != 2048 {
		t.Fatalf("frames = %d", s.Mem.NumFrames())
	}
	if s.SPCM.FreeFrames() == 0 {
		t.Fatal("SPCM owns no frames")
	}
	if err := s.Kernel.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// Figure 2: the five-step external fault-handling sequence, observed
// end-to-end through the full system. An application references a missing
// page (1: fault to manager); the manager allocates a frame and requests
// the data from the file server (2, 3); it migrates the frame to the
// faulting address (4); the application resumes and sees the data (5).
func TestFaultSequenceSteps(t *testing.T) {
	s := boot(t)
	s.Store.Preload("relation", 8, func(b int64, buf []byte) { buf[0] = byte(0xD0 + b) })

	var steps []string
	fb := &recordingBacking{FileBacking: manager.NewFileBacking(s.Store), steps: &steps}
	g, _, err := s.NewAppManager(manager.Config{Name: "app-manager", Backing: fb}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := g.CreateManagedSegment("relation-seg")
	if err != nil {
		t.Fatal(err)
	}
	fb.BindFile(seg, "relation")
	s.Kernel.SetSegmentManager(seg, &observedManager{g: g, steps: &steps})

	reads := s.Store.Reads()
	if err := s.Kernel.Access(seg, 3, kernel.Read); err != nil {
		t.Fatal(err)
	}
	steps = append(steps, "application-resumed")

	want := []string{"fault-delivered", "server-data-received", "migrated-and-resuming", "application-resumed"}
	if len(steps) != len(want) {
		t.Fatalf("steps = %v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("steps = %v, want %v", steps, want)
		}
	}
	if s.Store.Reads() != reads+1 {
		t.Fatal("file server not consulted exactly once")
	}
	if got := seg.FrameAt(3).Data()[0]; got != 0xD3 {
		t.Fatalf("application sees %#x, want 0xD3", got)
	}
}

// recordingBacking is a FileBacking that logs the fill's two Figure 2 steps.
type recordingBacking struct {
	*manager.FileBacking
	steps *[]string
}

func (b *recordingBacking) Fill(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	*b.steps = append(*b.steps, "fault-delivered")
	if err := b.FileBacking.Fill(seg, page, frame); err != nil {
		return err
	}
	*b.steps = append(*b.steps, "server-data-received")
	return nil
}

// observedManager wraps a Generic at the kernel.Manager seam and logs each
// fault the manager resolved, after it migrated the frame in.
type observedManager struct {
	g     *manager.Generic
	steps *[]string
}

func (m *observedManager) ManagerName() string                { return m.g.ManagerName() }
func (m *observedManager) Delivery() kernel.DeliveryMode      { return m.g.Delivery() }
func (m *observedManager) SegmentDeleted(seg *kernel.Segment) { m.g.SegmentDeleted(seg) }

func (m *observedManager) HandleFault(f kernel.Fault) error {
	err := m.g.HandleFault(f)
	if err == nil {
		*m.steps = append(*m.steps, "migrated-and-resuming")
	}
	return err
}

// A conventional program runs obliviously on the default manager while an
// application-specific manager controls its own segments — simultaneously,
// sharing the SPCM pool.
func TestMixedManagersShareThePool(t *testing.T) {
	s := boot(t)
	s.Store.Preload("doc", 4, nil)
	f, err := s.Default.OpenFile("doc")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := f.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}

	g, _, err := s.NewAppManager(manager.Config{Name: "scientific"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := g.CreateManagedSegment("matrix")
	for p := int64(0); p < 16; p++ {
		if err := s.Kernel.Access(seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Kernel.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
	// Both managers hold SPCM-granted memory.
	if a, ok := s.SPCM.Account(g); !ok || a.HeldPages() == 0 {
		t.Fatal("app manager holds nothing")
	}
	if a, ok := s.SPCM.Account(s.Default.Generic); !ok || a.HeldPages() == 0 {
		t.Fatal("default manager holds nothing")
	}
}

// The application can know and control exactly which physical frames back
// its pages — the paper's core capability.
func TestApplicationSeesPhysicalPlacement(t *testing.T) {
	s := boot(t)
	g, _, err := s.NewAppManager(manager.Config{
		Name: "placed",
		Constraint: func(f kernel.Fault) phys.Range {
			return phys.Range{Lo: 100, Hi: 200, Color: phys.ColorAny, Node: phys.NodeAny}
		},
	}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := g.CreateManagedSegment("placed-seg")
	if err := s.Kernel.Access(seg, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	attrs, err := s.Kernel.GetPageAttributes(seg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !attrs[0].Present || attrs[0].PFN < 100 || attrs[0].PFN >= 200 {
		t.Fatalf("frame %d outside requested physical range", attrs[0].PFN)
	}
}

// Memory pressure: a small machine forces the app manager to reclaim its
// own pages — and the application's manager, not the kernel, picks victims.
func TestPressureReclaimsThroughManager(t *testing.T) {
	s, err := Boot(Config{MemoryBytes: 1 << 20, StoreData: true}) // 256 frames
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := s.NewAppManager(manager.Config{Name: "big", RequestBatch: 16}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := g.CreateManagedSegment("data")
	for p := int64(0); p < 400; p++ { // more pages than the machine has
		if err := s.Kernel.Access(seg, p, kernel.Write); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
	}
	if g.Stats().Reclaims == 0 {
		t.Fatal("no reclamation despite exceeding physical memory")
	}
	if err := s.Kernel.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestBootWithCustomStorageAndMarket(t *testing.T) {
	lm := storage.LocalDisk()
	policy := Config{
		MemoryBytes: 4 << 20,
		Storage:     &lm,
	}
	s, err := Boot(policy)
	if err != nil {
		t.Fatal(err)
	}
	if s.Clock.Now() != 0 {
		t.Fatalf("fresh system at %v", s.Clock.Now())
	}
	// A fetch pays local-disk latency, not network latency.
	buf := make([]byte, 4096)
	if err := s.Store.Fetch("x", 0, buf); err != nil {
		t.Fatal(err)
	}
	want := lm.PerAccess + 4096*lm.PerByte
	if s.Clock.Now() != want {
		t.Fatalf("fetch cost %v, want %v", s.Clock.Now(), want)
	}
}

// Boot's own kernel operations are off the clock: a booted system's virtual
// time starts at zero.
func TestElapsedTracksClock(t *testing.T) {
	s := boot(t)
	s.Clock.Advance(3 * time.Second)
	if got := s.Clock.Now(); got != 3*time.Second {
		t.Fatalf("3 s after boot the clock reads %v", got)
	}
}

// End-to-end batch lifecycle (§2.2 + §2.4): an application runs, exhausts
// its dram savings, quiesces (swapping its segments and returning every
// frame), waits for its income to accumulate, and resumes with its data
// intact — the memory market's save-up-then-run discipline.
func TestBatchLifecycleThroughMarket(t *testing.T) {
	policy := spcmPolicyAlwaysCharge()
	s, err := Boot(Config{MemoryBytes: 4 << 20, StoreData: true, Market: &policy})
	if err != nil {
		t.Fatal(err)
	}
	g, account, err := s.NewAppManager(manager.Config{
		Name:    "batch-job",
		Backing: manager.NewSwapBacking(s.Store),
	}, 2 /* drams per second */)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := g.CreateManagedSegment("state")
	if err != nil {
		t.Fatal(err)
	}
	// Run a slice: touch 1 MB of state.
	for p := int64(0); p < 256; p++ {
		if err := s.Kernel.Access(seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
	}
	seg.FrameAt(100).Data()[0] = 0x42
	pages := seg.Pages()

	// Quiesce: swap out and return everything.
	returned, err := g.Quiesce([]*kernel.Segment{seg})
	if err != nil {
		t.Fatal(err)
	}
	if returned < 256 {
		t.Fatalf("returned %d frames", returned)
	}
	if account.HeldPages() != 0 {
		t.Fatalf("quiescent job still holds %d pages", account.HeldPages())
	}

	// Wait until the slice is affordable again.
	wait := s.SPCM.EstimateWait(account, 256, 30*time.Second)
	s.Clock.Advance(wait + time.Second)
	s.SPCM.SettleAll()

	// Resume: data must be intact.
	if err := g.Resume([]*kernel.Segment{seg}, map[kernel.SegID][]int64{seg.ID(): pages}); err != nil {
		t.Fatal(err)
	}
	if seg.PageCount() != 256 {
		t.Fatalf("resumed %d pages", seg.PageCount())
	}
	if seg.FrameAt(100).Data()[0] != 0x42 {
		t.Fatal("state lost across the quiesce/resume cycle")
	}
	if err := s.Kernel.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func spcmPolicyAlwaysCharge() spcm.Policy {
	p := spcm.DefaultPolicy()
	p.FreeWhenUncontended = false
	p.SavingsTaxRate = 0
	return p
}

// A swap-in fills through the manager's one fill routine, exactly as a
// fault does: a clean page the store holds no data for costs the default
// manager no read, and a prefetching manager counts its demand fetches.
func TestSwapInFillsThroughTheBacking(t *testing.T) {
	const pages = 8
	for _, c := range []struct {
		name string
		// build returns the manager, a managed segment and the counter the
		// swap-in must move by want.
		build func(t *testing.T, s *System) (*manager.Generic, *kernel.Segment, func() int64)
		want  int64
	}{
		{"default-anonymous-clean", func(t *testing.T, s *System) (*manager.Generic, *kernel.Segment, func() int64) {
			seg, err := s.Default.NewAnonymousSegment("heap")
			if err != nil {
				t.Fatal(err)
			}
			return s.Default.Generic, seg, s.Store.Reads
		}, 0},
		{"prefetch-demand-fetches", func(t *testing.T, s *System) (*manager.Generic, *kernel.Segment, func() int64) {
			dev := manager.NewAsyncDevice(s.Clock, storage.LocalDisk())
			pf, err := manager.NewPrefetch(s.Kernel, manager.Config{Name: "pf", Source: s.SPCM}, dev, s.Store, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.SPCM.Register(pf.Generic, "pf", 1000)
			s.Store.Preload("data", pages, nil)
			seg, err := pf.CreateManagedSegment("data")
			if err != nil {
				t.Fatal(err)
			}
			pf.BindFile(seg, "data")
			return pf.Generic, seg, pf.DemandFetches
		}, pages},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := boot(t)
			g, seg, count := c.build(t, s)
			list := make([]int64, pages)
			for i := range list {
				list[i] = int64(i)
				if err := s.Kernel.Access(seg, list[i], kernel.Read); err != nil {
					t.Fatal(err)
				}
			}
			if st, err := g.SwapOut(seg); err != nil || st.CleanSkips != pages {
				t.Fatalf("SwapOut = %+v, %v; want %d clean skips", st, err, pages)
			}
			before := count()
			if st, err := g.SwapIn(seg, list); err != nil || st.PagesIn != pages {
				t.Fatalf("SwapIn = %+v, %v; want %d pages in", st, err, pages)
			}
			if got := count() - before; got != c.want {
				t.Errorf("swap-in moved the counter by %d, want %d", got, c.want)
			}
		})
	}
}
