// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the design choices called out in DESIGN.md.
//
// All timings are *virtual* machine time from the calibrated cost model —
// the quantity the paper reports — surfaced through b.ReportMetric as
// custom metrics (virt-µs, virt-ms, …). The Go ns/op column measures only
// the simulator's own speed and is not meaningful for the reproduction.
//
// Run:
//
//	go test -bench=. -benchmem
//
// and compare the virt-* metrics with the paper-* metrics reported
// alongside them.
package epcm_test

import (
	"testing"
	"time"

	"epcm"
	"epcm/internal/apps"
	"epcm/internal/db"
	"epcm/internal/defaultmgr"
	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/spcm"
	"epcm/internal/storage"
	"epcm/internal/ultrix"
	"epcm/internal/workload"
)

// --- Table 1: system primitive times -------------------------------------

// minimalFaultSystem builds a small V++ machine with an app manager whose
// free list is pre-stocked, so a fault is exactly the minimal path.
func minimalFaultSystem(b *testing.B, delivery kernel.DeliveryMode) (*epcm.System, *kernel.Segment) {
	b.Helper()
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 16 << 20, StoreData: true})
	if err != nil {
		b.Fatal(err)
	}
	g, _, err := sys.NewAppManager(epcm.ManagerConfig{Name: "bench", Delivery: delivery, RequestBatch: 2048}, 1e9)
	if err != nil {
		b.Fatal(err)
	}
	seg, err := g.CreateManagedSegment("bench-seg")
	if err != nil {
		b.Fatal(err)
	}
	if err := g.EnsureFree(2048); err != nil {
		b.Fatal(err)
	}
	return sys, seg
}

// BenchmarkTable1MinimalFaultFaultingProcess measures row 1: the V++
// minimal fault handled by the faulting process. Paper: 107 µs (Ultrix
// equivalent 175 µs).
func BenchmarkTable1MinimalFaultFaultingProcess(b *testing.B) {
	sys, seg := minimalFaultSystem(b, kernel.DeliverSameProcess)
	var total time.Duration
	for i := 0; i < b.N; i++ {
		start := sys.Clock.Now()
		if err := sys.Kernel.Access(seg, int64(i%2000), epcm.Write); err != nil {
			b.Fatal(err)
		}
		if i < 2000 {
			total += sys.Clock.Now() - start
		}
	}
	n := b.N
	if n > 2000 {
		n = 2000
	}
	b.ReportMetric(float64(total.Microseconds())/float64(n), "virt-µs/fault")
	b.ReportMetric(107, "paper-µs")
}

// BenchmarkTable1MinimalFaultDefaultManager measures row 2: the minimal
// fault through the separate-process default manager. Paper: 379 µs.
func BenchmarkTable1MinimalFaultDefaultManager(b *testing.B) {
	sys, seg := minimalFaultSystem(b, kernel.DeliverSeparateProcess)
	var total time.Duration
	for i := 0; i < b.N; i++ {
		start := sys.Clock.Now()
		if err := sys.Kernel.Access(seg, int64(i%2000), epcm.Write); err != nil {
			b.Fatal(err)
		}
		if i < 2000 {
			total += sys.Clock.Now() - start
		}
	}
	n := b.N
	if n > 2000 {
		n = 2000
	}
	b.ReportMetric(float64(total.Microseconds())/float64(n), "virt-µs/fault")
	b.ReportMetric(379, "paper-µs")
}

// BenchmarkTable1Read4K measures row 3: a cached-file 4 KB block read
// through the UIO interface. Paper: V++ 222 µs, Ultrix 211 µs.
func BenchmarkTable1Read4K(b *testing.B) {
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 16 << 20, StoreData: true})
	if err != nil {
		b.Fatal(err)
	}
	sys.Store.Preload("f", 4, nil)
	f, err := sys.OpenFile("f")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := f.ReadBlock(0, buf); err != nil { // warm
		b.Fatal(err)
	}
	start := sys.Clock.Now()
	for i := 0; i < b.N; i++ {
		if err := f.ReadBlock(0, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64((sys.Clock.Now()-start).Microseconds())/float64(b.N), "virt-µs/read")
	b.ReportMetric(222, "paper-µs")
}

// BenchmarkTable1Write4K measures row 4: a cached-file 4 KB block write.
// Paper: V++ 203 µs, Ultrix 311 µs.
func BenchmarkTable1Write4K(b *testing.B) {
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 16 << 20, StoreData: true})
	if err != nil {
		b.Fatal(err)
	}
	f, err := sys.OpenFile("f")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := f.WriteBlock(0, buf); err != nil { // allocate
		b.Fatal(err)
	}
	start := sys.Clock.Now()
	for i := 0; i < b.N; i++ {
		if err := f.WriteBlock(0, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64((sys.Clock.Now()-start).Microseconds())/float64(b.N), "virt-µs/write")
	b.ReportMetric(203, "paper-µs")
}

// BenchmarkTable1UltrixBaseline measures the Ultrix side of Table 1 (fault
// 175 µs, read 211 µs, write 311 µs) plus the §3.1 user-level fault handler
// (152 µs).
func BenchmarkTable1UltrixBaseline(b *testing.B) {
	var clock sim.Clock
	store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
	store.Preload("f", 4, nil)
	s := ultrix.New(&clock, sim.DECstation5000(), store, 4096)
	region := s.NewRegion("heap")
	f := s.OpenFile("f")
	f.Read4K(0)
	f.Write4K(0)

	var fault, read, write, user time.Duration
	faultSamples := 0
	for i := 0; i < b.N; i++ {
		if i < 2000 {
			fault += s.MinimalFault(region, int64(1000+i))
			faultSamples++
		}

		t0 := clock.Now()
		f.Read4K(0)
		read += clock.Now() - t0

		t0 = clock.Now()
		f.Write4K(0)
		write += clock.Now() - t0

		region.Touch(0, true)
		region.Mprotect(0, true)
		t0 = clock.Now()
		region.Touch(0, false)
		user += clock.Now() - t0 - 0 // the touch is the 152µs handler path
	}
	n := float64(b.N)
	b.ReportMetric(float64(fault.Microseconds())/float64(faultSamples), "virt-µs/fault")
	b.ReportMetric(float64(read.Microseconds())/n, "virt-µs/read")
	b.ReportMetric(float64(write.Microseconds())/n, "virt-µs/write")
	b.ReportMetric(float64(user.Microseconds())/n-30, "virt-µs/userfault-minus-mprotect")
	b.ReportMetric(175, "paper-µs-fault")
}

// BenchmarkUserLevelFaultHandler measures §3.1's comparison: the Ultrix
// user-level fault handler (152 µs) is >50% more expensive than a *full*
// V++ fault (107 µs).
func BenchmarkUserLevelFaultHandler(b *testing.B) {
	var clock sim.Clock
	store := storage.NewStore(&clock, storage.Prefilled(), 4096)
	s := ultrix.New(&clock, sim.DECstation5000(), store, 4096)
	region := s.NewRegion("heap")
	region.Touch(0, true)
	var total time.Duration
	for i := 0; i < b.N; i++ {
		region.Mprotect(0, true)
		t0 := clock.Now()
		region.Touch(0, false)
		total += clock.Now() - t0
	}
	b.ReportMetric(float64(total.Microseconds())/float64(b.N), "virt-µs/userfault")
	b.ReportMetric(152, "paper-µs")
	b.ReportMetric(107, "paper-µs-vpp-full-fault")
}

// --- Tables 2 and 3: application runs -------------------------------------

func benchWorkload(b *testing.B, spec workload.Spec) {
	cal, ue, _, err := workload.Calibrated(spec)
	if err != nil {
		b.Fatal(err)
	}
	ultMS := float64(ue.Milliseconds())
	var vppMS, calls, migrates float64
	for i := 0; i < b.N; i++ {
		vr, err := workload.NewVppRunner(0, kernel.Config{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		ve, vc, err := workload.Run(vr, cal)
		if err != nil {
			b.Fatal(err)
		}
		vppMS = float64(ve.Milliseconds())
		calls = float64(vc.ManagerCalls)
		migrates = float64(vc.MigrateCalls)
	}
	b.ReportMetric(vppMS, "virt-ms-vpp")
	b.ReportMetric(ultMS, "virt-ms-ultrix")
	b.ReportMetric(float64(spec.PaperVppElapsed.Milliseconds()), "paper-ms-vpp")
	b.ReportMetric(float64(spec.UltrixElapsed.Milliseconds()), "paper-ms-ultrix")
	b.ReportMetric(calls, "mgr-calls")
	b.ReportMetric(float64(spec.PaperCalls), "paper-calls")
	b.ReportMetric(migrates, "migrate-calls")
	b.ReportMetric(float64(spec.PaperMigrates), "paper-migrates")
	// Table 3 column 3: overhead = (379-175)µs × calls.
	b.ReportMetric(calls*0.204, "overhead-ms")
	b.ReportMetric(float64(spec.PaperOverhead.Milliseconds()), "paper-overhead-ms")
}

// BenchmarkTable2And3Diff regenerates the diff rows of Tables 2 and 3.
func BenchmarkTable2And3Diff(b *testing.B) { benchWorkload(b, workload.Diff()) }

// BenchmarkTable2And3Uncompress regenerates the uncompress rows.
func BenchmarkTable2And3Uncompress(b *testing.B) { benchWorkload(b, workload.Uncompress()) }

// BenchmarkTable2And3Latex regenerates the latex rows.
func BenchmarkTable2And3Latex(b *testing.B) { benchWorkload(b, workload.Latex()) }

// --- Table 4: database transaction processing ------------------------------

func benchTable4(b *testing.B, cfg db.MemoryConfig) {
	paper := db.PaperTable4()[cfg]
	var avg, worst float64
	for i := 0; i < b.N; i++ {
		r := db.New(cfg, db.DefaultParams()).Run()
		if r.Deadlocked != 0 {
			b.Fatalf("%d deadlocked", r.Deadlocked)
		}
		avg = float64(r.Average().Milliseconds())
		worst = float64(r.Worst().Milliseconds())
	}
	b.ReportMetric(avg, "virt-ms-avg")
	b.ReportMetric(worst, "virt-ms-worst")
	b.ReportMetric(float64(paper[0].Milliseconds()), "paper-ms-avg")
	b.ReportMetric(float64(paper[1].Milliseconds()), "paper-ms-worst")
}

// BenchmarkTable4NoIndex: joins scan relations under escalated S locks.
// Paper: 866 ms average, 3770 ms worst.
func BenchmarkTable4NoIndex(b *testing.B) { benchTable4(b, db.NoIndex) }

// BenchmarkTable4IndexInMemory: indices resident. Paper: 43 / 410 ms.
func BenchmarkTable4IndexInMemory(b *testing.B) { benchTable4(b, db.IndexInMemory) }

// BenchmarkTable4IndexWithPaging: 1 MB of index transparently paged.
// Paper: 575 / 3930 ms.
func BenchmarkTable4IndexWithPaging(b *testing.B) { benchTable4(b, db.IndexWithPaging) }

// BenchmarkTable4IndexRegeneration: application-controlled discard and
// in-memory rebuild. Paper: 55 / 680 ms.
func BenchmarkTable4IndexRegeneration(b *testing.B) { benchTable4(b, db.IndexRegeneration) }

// --- Ablations --------------------------------------------------------------

// BenchmarkAblationFaultDelivery compares the two fault-delivery paths of
// §2.1: same-process upcall vs separate manager process over IPC.
func BenchmarkAblationFaultDelivery(b *testing.B) {
	for _, d := range []kernel.DeliveryMode{kernel.DeliverSameProcess, kernel.DeliverSeparateProcess} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			sys, seg := minimalFaultSystem(b, d)
			var total time.Duration
			for i := 0; i < b.N; i++ {
				start := sys.Clock.Now()
				if err := sys.Kernel.Access(seg, int64(i%2000), epcm.Write); err != nil {
					b.Fatal(err)
				}
				if i < 2000 {
					total += sys.Clock.Now() - start
				}
			}
			b.ReportMetric(float64(total.Microseconds())/float64(min(b.N, 2000)), "virt-µs/fault")
		})
	}
}

// BenchmarkAblationZeroFill isolates the security zero-fill: §3.1
// attributes most of the 68 µs V++/Ultrix minimal-fault gap to the 75 µs
// page zeroing Ultrix performs on each allocation.
func BenchmarkAblationZeroFill(b *testing.B) {
	cost := sim.DECstation5000()
	with := cost.UltrixMinimalFault()
	without := with - cost.ZeroPage
	b.ReportMetric(float64(with.Microseconds()), "virt-µs-with-zero")
	b.ReportMetric(float64(without.Microseconds()), "virt-µs-without-zero")
	b.ReportMetric(float64(cost.VppMinimalFaultSameProcess().Microseconds()), "virt-µs-vpp")
	for i := 0; i < b.N; i++ {
		_ = cost.UltrixMinimalFault()
	}
}

// BenchmarkAblationBatchedUnprotect measures the default manager's §2.3
// fault-amortization: sampling faults for a 256-page scan at batch sizes
// 1, 4, 8 and 16.
func BenchmarkAblationBatchedUnprotect(b *testing.B) {
	for _, batch := range []int{1, 4, 8, 16} {
		batch := batch
		b.Run(name("batch", batch), func(b *testing.B) {
			var faults, micros float64
			for i := 0; i < b.N; i++ {
				mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 16 << 20, StoreData: false})
				var clock sim.Clock
				k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
				store := storage.NewStore(&clock, storage.NetworkServer(), 4096)
				store.Preload("scan", 256, nil)
				pool, err := manager.NewFixedPool(k, 2048, 0)
				if err != nil {
					b.Fatal(err)
				}
				d, err := defaultmgr.New(k, store, defaultmgr.Config{Source: pool, UnprotectBatch: batch})
				if err != nil {
					b.Fatal(err)
				}
				f, err := d.OpenFile("scan")
				if err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, 4096)
				for p := int64(0); p < 256; p++ {
					if err := f.ReadBlock(p, buf); err != nil {
						b.Fatal(err)
					}
				}
				if err := d.BeginSampleInterval(); err != nil {
					b.Fatal(err)
				}
				start := clock.Now()
				for p := int64(0); p < 256; p++ {
					if err := k.Access(f.Segment(), p, epcm.Read); err != nil {
						b.Fatal(err)
					}
				}
				faults = float64(d.Stats().SampleFaults)
				micros = float64((clock.Now() - start).Microseconds())
			}
			b.ReportMetric(faults, "sample-faults")
			b.ReportMetric(micros, "virt-µs-total")
		})
	}
}

// BenchmarkAblationDiscard measures the discardable-page optimization (§4,
// Subramanian): reclaiming 128 dirty pages with and without discard.
func BenchmarkAblationDiscard(b *testing.B) {
	for _, ignore := range []bool{false, true} {
		ignore := ignore
		label := "discard-honored"
		if ignore {
			label = "discard-ignored"
		}
		b.Run(label, func(b *testing.B) {
			var micros, writebacks float64
			for i := 0; i < b.N; i++ {
				mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 4 << 20, StoreData: true})
				var clock sim.Clock
				k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
				store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
				pool, err := manager.NewFixedPool(k, 256, 0)
				if err != nil {
					b.Fatal(err)
				}
				g, err := manager.NewGeneric(k, manager.Config{
					Name: "gc", Backing: manager.NewSwapBacking(store),
					Source: pool, IgnoreDiscardable: ignore,
				})
				if err != nil {
					b.Fatal(err)
				}
				seg, _ := g.CreateManagedSegment("heap")
				for p := int64(0); p < 128; p++ {
					if err := k.Access(seg, p, epcm.Write); err != nil {
						b.Fatal(err)
					}
				}
				// The collector knows these pages are garbage.
				if err := k.ModifyPageFlags(kernel.AppCred, seg, 0, 128,
					epcm.FlagDiscardable, epcm.FlagReferenced); err != nil {
					b.Fatal(err)
				}
				start := clock.Now()
				if _, err := g.Reclaim(128, phys.AnyFrame()); err != nil {
					b.Fatal(err)
				}
				micros = float64((clock.Now() - start).Microseconds())
				writebacks = float64(g.Stats().Writebacks)
			}
			b.ReportMetric(micros/1000, "virt-ms-reclaim")
			b.ReportMetric(writebacks, "writebacks")
		})
	}
}

// BenchmarkAblationPrefetch measures §1's MP3D-style overlap: a sequential
// scan with compute per page, demand-paged vs read-ahead.
func BenchmarkAblationPrefetch(b *testing.B) {
	const pages = 128
	compute := 20 * time.Millisecond
	run := func(b *testing.B, depth int) time.Duration {
		mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 8 << 20, StoreData: true})
		var clock sim.Clock
		k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
		store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
		store.Preload("matrix", pages, nil)
		pool, err := manager.NewFixedPool(k, 1024, 0)
		if err != nil {
			b.Fatal(err)
		}
		var g *manager.Generic
		var pf *manager.Prefetch
		if depth > 0 {
			dev := manager.NewAsyncDevice(&clock, storage.LocalDisk())
			pf, err = manager.NewPrefetch(k, manager.Config{Name: "pf", Source: pool}, dev, store, depth)
			if err != nil {
				b.Fatal(err)
			}
			g = pf.Generic
		} else {
			fb := manager.NewFileBacking(store)
			g, err = manager.NewGeneric(k, manager.Config{Name: "demand", Backing: fb, Source: pool})
			if err != nil {
				b.Fatal(err)
			}
		}
		seg, _ := g.CreateManagedSegment("m")
		if pf != nil {
			pf.BindFile(seg, "matrix")
		} else {
			g.Backing().(*manager.FileBacking).BindFile(seg, "matrix")
		}
		start := clock.Now()
		for p := int64(0); p < pages; p++ {
			if err := k.Access(seg, p, epcm.Read); err != nil {
				b.Fatal(err)
			}
			clock.Advance(compute)
		}
		return clock.Now() - start
	}
	for _, depth := range []int{0, 2, 4, 8} {
		depth := depth
		b.Run(name("depth", depth), func(b *testing.B) {
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				elapsed = run(b, depth)
			}
			b.ReportMetric(float64(elapsed.Milliseconds()), "virt-ms-scan")
			b.ReportMetric(float64(pages)*compute.Seconds()*1000, "virt-ms-pure-compute")
		})
	}
}

// BenchmarkAblationColoring measures §1/§2.4 page coloring: the cache miss
// ratio of a working set allocated color-aware vs first-fit.
func BenchmarkAblationColoring(b *testing.B) {
	const colors = 16
	run := func(b *testing.B, colored bool) float64 {
		mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 8 << 20, CacheColors: colors, StoreData: true})
		var clock sim.Clock
		k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
		pool, err := manager.NewFixedPool(k, 1024, 0)
		if err != nil {
			b.Fatal(err)
		}
		cfg := manager.Config{Name: "color-bench", Source: pool}
		var g *manager.Generic
		if colored {
			g, err = manager.NewColoring(k, cfg, colors)
		} else {
			// First-fit: whatever frame comes off the free list. Seed the
			// free list with same-color frames to model an unlucky (but
			// perfectly possible) conventional allocation.
			cfg.Constraint = func(f kernel.Fault) phys.Range {
				return phys.Range{Color: 0, Node: phys.NodeAny}
			}
			g, err = manager.NewGeneric(k, cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		seg, _ := g.CreateManagedSegment("hot")
		for p := int64(0); p < colors; p++ {
			if err := k.Access(seg, p, epcm.Write); err != nil {
				b.Fatal(err)
			}
		}
		cache := phys.NewCache(colors, 2)
		for round := 0; round < 200; round++ {
			for p := int64(0); p < colors; p++ {
				cache.Access(seg.FrameAt(p))
			}
		}
		return cache.MissRatio()
	}
	for _, colored := range []bool{true, false} {
		colored := colored
		label := "colored"
		if !colored {
			label = "same-color-worst-case"
		}
		b.Run(label, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = run(b, colored)
			}
			b.ReportMetric(ratio, "miss-ratio")
		})
	}
}

// BenchmarkAblationAppendUnit measures §3.2's append allocation unit: the
// fault count for appending a 2 MB file at 4 KB vs 16 KB units.
func BenchmarkAblationAppendUnit(b *testing.B) {
	for _, unitPages := range []int{1, 4, 8} {
		unitPages := unitPages
		b.Run(name("unit-pages", unitPages), func(b *testing.B) {
			var faults, micros float64
			for i := 0; i < b.N; i++ {
				mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 16 << 20, StoreData: false})
				var clock sim.Clock
				k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
				store := storage.NewStore(&clock, storage.NetworkServer(), 4096)
				pool, err := manager.NewFixedPool(k, 2048, 0)
				if err != nil {
					b.Fatal(err)
				}
				d, err := defaultmgr.New(k, store, defaultmgr.Config{Source: pool, AppendUnit: unitPages})
				if err != nil {
					b.Fatal(err)
				}
				f, err := d.OpenFile("out")
				if err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, 4096)
				start := clock.Now()
				for p := int64(0); p < 512; p++ {
					if err := f.WriteBlock(p, buf); err != nil {
						b.Fatal(err)
					}
				}
				faults = float64(k.Stats().MissingFaults)
				micros = float64((clock.Now() - start).Microseconds())
			}
			b.ReportMetric(faults, "append-faults")
			b.ReportMetric(micros/1000, "virt-ms-append-2MB")
		})
	}
}

// BenchmarkAblationMarket measures the memory market: two jobs with 2:1
// incomes, each wanting more memory than it can afford, end up holding
// memory 0.64 : 0.36 — more memory goes to more income, the administrative
// allocation policy (§2.4). Enforcement leaves each account what it can
// hold solvent, so each settles near income/price MB; the split is the
// step-299 sample, taken after that step's grants.
func BenchmarkAblationMarket(b *testing.B) {
	var shareA, shareB float64
	for i := 0; i < b.N; i++ {
		aA, aB := runMarket(b, nil)
		total := float64(aA.HeldPages() + aB.HeldPages())
		shareA = float64(aA.HeldPages()) / total
		shareB = float64(aB.HeldPages()) / total
	}
	b.ReportMetric(shareA, "share-income-4")
	b.ReportMetric(shareB, "share-income-2")
}

// marketSteps is how many one-second settles the market ablation runs.
const marketSteps = 300

// runMarket runs the market ablation on an 8 MB machine: accounts of income
// 4 and 2, and every second a settle, an Enforce and a 64-frame grant to
// each account whose balance is positive. afterEnforce, if not nil, runs
// after each step's Enforce with the step and the two accounts.
func runMarket(tb testing.TB, afterEnforce func(sys *epcm.System, step int, aA, aB *epcm.Account)) (aA, aB *epcm.Account) {
	tb.Helper()
	policy := epcm.DefaultMarketPolicy()
	policy.FreeWhenUncontended = false
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 8 << 20, StoreData: false, Market: &policy})
	if err != nil {
		tb.Fatal(err)
	}
	gA, aA, err := sys.NewAppManager(epcm.ManagerConfig{Name: "rich"}, 4)
	if err != nil {
		tb.Fatal(err)
	}
	gB, aB, err := sys.NewAppManager(epcm.ManagerConfig{Name: "poor"}, 2)
	if err != nil {
		tb.Fatal(err)
	}
	for step := 0; step < marketSteps; step++ {
		sys.Clock.Advance(time.Second)
		sys.SPCM.SettleAll()
		if _, err := sys.SPCM.Enforce(); err != nil {
			tb.Fatal(err)
		}
		if afterEnforce != nil {
			afterEnforce(sys, step, aA, aB)
		}
		if aA.Balance() > 0 {
			if _, err := sys.SPCM.RequestFrames(gA, 64, phys.AnyFrame()); err != nil {
				tb.Fatal(err)
			}
		}
		if aB.Balance() > 0 {
			if _, err := sys.SPCM.RequestFrames(gB, 64, phys.AnyFrame()); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return aA, aB
}

func name(prefix string, v int) string {
	return prefix + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationUnixRetrofit measures §2.4's Unix retrofit: an
// externally-managed fault on the retrofitted conventional kernel
// (signal-path delivery) against the native V++ path.
func BenchmarkAblationUnixRetrofit(b *testing.B) {
	var clock sim.Clock
	store := storage.NewStore(&clock, storage.Prefilled(), 4096)
	s := ultrix.New(&clock, sim.DECstation5000(), store, 8192)
	s.SetPageCacheFile("db", benchExtManager{})
	var total time.Duration
	samples := 0
	for i := 0; i < b.N; i++ {
		d, err := s.MeasureExternalFault("db", int64(i%4096))
		if err != nil {
			b.Fatal(err)
		}
		if i < 2000 {
			total += d - sim.DECstation5000().UltrixRead4K() // isolate delivery
			samples++
		}
	}
	b.ReportMetric(float64(total.Microseconds())/float64(samples), "virt-µs/retrofit-fault")
	b.ReportMetric(107, "paper-µs-vpp-native")
}

type benchExtManager struct{}

func (benchExtManager) FillPage(string, int64, []byte) error { return nil }
func (benchExtManager) SelectVictims(file string, resident []int64, n int) []int64 {
	if n > len(resident) {
		n = len(resident)
	}
	return resident[:n]
}

// BenchmarkAblationCheckpoint measures concurrent checkpointing: total
// virtual time to checkpoint a 128-page segment while the application
// performs 32 writes, fault path vs an all-at-once stop-and-copy.
func BenchmarkAblationCheckpoint(b *testing.B) {
	var concurrent, stopCopy time.Duration
	for i := 0; i < b.N; i++ {
		// Concurrent: Begin, app writes (faulting saves), drain, Finish.
		{
			mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 8 << 20, StoreData: true})
			var clock sim.Clock
			k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
			store := storage.NewStore(&clock, storage.Prefilled(), 4096)
			pool, err := manager.NewFixedPool(k, 512, 0)
			if err != nil {
				b.Fatal(err)
			}
			ck := apps.NewCheckpointer(k, store)
			g, err := manager.NewGeneric(k, manager.Config{Name: "app", Source: pool, Protection: ck.Hook()})
			if err != nil {
				b.Fatal(err)
			}
			seg, _ := g.CreateManagedSegment("heap")
			ck.Attach(g, seg)
			for p := int64(0); p < 128; p++ {
				if err := k.Access(seg, p, epcm.Write); err != nil {
					b.Fatal(err)
				}
			}
			start := clock.Now()
			if err := ck.Begin(); err != nil {
				b.Fatal(err)
			}
			for w := int64(0); w < 32; w++ {
				if err := k.Access(seg, w*3%128, epcm.Write); err != nil {
					b.Fatal(err)
				}
			}
			if err := ck.Finish(); err != nil {
				b.Fatal(err)
			}
			concurrent = clock.Now() - start
		}
		// Stop-and-copy: save all pages, then do the writes.
		{
			var clock sim.Clock
			cost := sim.DECstation5000()
			clock.Advance(128 * cost.CopyPage) // copy out
			// The 32 writes proceed with no faults afterwards.
			stopCopy = clock.Now()
		}
	}
	b.ReportMetric(float64(concurrent.Microseconds())/1000, "virt-ms-concurrent")
	b.ReportMetric(float64(stopCopy.Microseconds())/1000, "virt-ms-stopcopy-pause")
}

// BenchmarkAblationAdaptiveMemory measures the §1 space-time adaptation:
// fixed total work under a memory budget half the appetite, adaptive vs
// oblivious.
func BenchmarkAblationAdaptiveMemory(b *testing.B) {
	run := func(adaptive bool) (time.Duration, int64) {
		mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 2 << 20, StoreData: false})
		var clock sim.Clock
		k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
		policy := epcm.DefaultMarketPolicy()
		policy.FreeWhenUncontended = false
		policy.SavingsTaxRate = 0
		s := spcm.New(k, policy)
		store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
		m, err := apps.NewMP3D(k, s, manager.NewSwapBacking(store), 0.375)
		if err != nil {
			b.Fatal(err)
		}
		m.Adaptive = adaptive
		m.MaxPages = 200
		m.Tick = func() {
			s.SettleAll()
			if _, err := s.Enforce(); err != nil {
				b.Fatal(err)
			}
		}
		start := clock.Now()
		if _, err := m.RunWork(10000); err != nil {
			b.Fatal(err)
		}
		return clock.Now() - start, store.Reads() + store.Writes()
	}
	var at, ot time.Duration
	var aio, oio int64
	for i := 0; i < b.N; i++ {
		at, aio = run(true)
		ot, oio = run(false)
	}
	b.ReportMetric(at.Seconds(), "virt-s-adaptive")
	b.ReportMetric(ot.Seconds(), "virt-s-oblivious")
	b.ReportMetric(float64(aio), "io-adaptive")
	b.ReportMetric(float64(oio), "io-oblivious")
}

// BenchmarkAblationCompressedSwap measures the compressed-swap backing:
// reclaiming 128 sparse dirty pages through RLE vs plain swap writes.
func BenchmarkAblationCompressedSwap(b *testing.B) {
	run := func(compressed bool) (time.Duration, int64) {
		mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 4 << 20, StoreData: true})
		var clock sim.Clock
		k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
		store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
		pool, err := manager.NewFixedPool(k, 256, 0)
		if err != nil {
			b.Fatal(err)
		}
		var backing manager.Backing
		if compressed {
			backing = manager.NewCompressedBacking(store)
		} else {
			backing = manager.NewSwapBacking(store)
		}
		g, err := manager.NewGeneric(k, manager.Config{Name: "m", Source: pool, Backing: backing})
		if err != nil {
			b.Fatal(err)
		}
		seg, _ := g.CreateManagedSegment("heap")
		for p := int64(0); p < 128; p++ {
			if err := k.Access(seg, p, epcm.Write); err != nil {
				b.Fatal(err)
			}
			seg.FrameAt(p).Data()[7] = byte(p) // sparse dirty pages
		}
		if err := k.ModifyPageFlags(kernel.AppCred, seg, 0, 128, 0, epcm.FlagReferenced); err != nil {
			b.Fatal(err)
		}
		start := clock.Now()
		if _, err := g.Reclaim(128, phys.AnyFrame()); err != nil {
			b.Fatal(err)
		}
		return clock.Now() - start, store.Writes()
	}
	var ct, pt time.Duration
	var cw, pw int64
	for i := 0; i < b.N; i++ {
		ct, cw = run(true)
		pt, pw = run(false)
	}
	b.ReportMetric(float64(ct.Microseconds())/1000, "virt-ms-compressed")
	b.ReportMetric(float64(pt.Microseconds())/1000, "virt-ms-plain")
	b.ReportMetric(float64(cw), "disk-writes-compressed")
	b.ReportMetric(float64(pw), "disk-writes-plain")
}

// BenchmarkAblationReplacementPolicy measures the payoff of the paper's
// specializable "page replacement selection routines" (§2.2): a cyclic
// sequential scan over data twice the size of memory, under the default
// clock vs an application-supplied MRU policy (the classic DBMS scan
// policy).
func BenchmarkAblationReplacementPolicy(b *testing.B) {
	const dataPages, memFrames, passes = 256, 128, 4
	run := func(policy manager.Policy) (time.Duration, int64) {
		mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 2 << 20, StoreData: false})
		var clock sim.Clock
		k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
		store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
		pool, err := manager.NewFixedPool(k, memFrames, 0)
		if err != nil {
			b.Fatal(err)
		}
		g, err := manager.NewGeneric(k, manager.Config{
			Name: "scan", Source: pool,
			Backing:      manager.NewSwapBacking(store),
			Policy:       policy,
			RequestBatch: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		seg, _ := g.CreateManagedSegment("data")
		start := clock.Now()
		for pass := 0; pass < passes; pass++ {
			for p := int64(0); p < dataPages; p++ {
				if err := k.Access(seg, p, epcm.Read); err != nil {
					b.Fatal(err)
				}
			}
		}
		return clock.Now() - start, g.Stats().Faults
	}
	var clockTime, mruTime time.Duration
	var clockFaults, mruFaults int64
	for i := 0; i < b.N; i++ {
		clockTime, clockFaults = run(nil)
		mruTime, mruFaults = run(manager.NewMRUPolicy())
	}
	b.ReportMetric(clockTime.Seconds(), "virt-s-clock")
	b.ReportMetric(mruTime.Seconds(), "virt-s-mru")
	b.ReportMetric(float64(clockFaults), "faults-clock")
	b.ReportMetric(float64(mruFaults), "faults-mru")
}

// BenchmarkAblationParallelQuery measures §1's XPRS adaptation: degree of
// parallelism chosen by memory availability vs fixed maximum parallelism,
// on a machine that fits only ~3 workers' working sets.
func BenchmarkAblationParallelQuery(b *testing.B) {
	run := func(adaptive bool) (time.Duration, int, int64) {
		mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 200 * 4096, StoreData: false})
		var clock sim.Clock
		k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
		s := spcm.New(k, epcm.DefaultMarketPolicy())
		store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
		q, err := apps.NewParallelQuery(k, s, manager.NewSwapBacking(store), 1e6)
		if err != nil {
			b.Fatal(err)
		}
		q.Adaptive = adaptive
		elapsed, err := q.Run()
		if err != nil {
			b.Fatal(err)
		}
		return elapsed, q.Degree(), store.Reads() + store.Writes()
	}
	var at, ot time.Duration
	var ad, od int
	var aio, oio int64
	for i := 0; i < b.N; i++ {
		at, ad, aio = run(true)
		ot, od, oio = run(false)
	}
	b.ReportMetric(at.Seconds(), "virt-s-adaptive")
	b.ReportMetric(ot.Seconds(), "virt-s-oblivious")
	b.ReportMetric(float64(ad), "degree-adaptive")
	b.ReportMetric(float64(od), "degree-oblivious")
	b.ReportMetric(float64(aio), "io-adaptive")
	b.ReportMetric(float64(oio), "io-oblivious")
}

// BenchmarkExtensionLoadSweep extends the Table 4 experiment beyond the
// paper: transaction response versus arrival rate, per configuration. It
// shows where each configuration saturates — the indexed configurations
// absorb triple the paper's load; the scan configuration is already near
// saturation at 40 tps.
func BenchmarkExtensionLoadSweep(b *testing.B) {
	for _, tps := range []float64{20, 40, 60} {
		tps := tps
		b.Run(name("tps", int(tps)), func(b *testing.B) {
			var noIdx, inMem float64
			for i := 0; i < b.N; i++ {
				p := db.DefaultParams()
				p.ArrivalTPS = tps
				p.Transactions = 2000
				p.Warmup = 100
				noIdx = float64(db.New(db.NoIndex, p).Run().Average().Milliseconds())
				inMem = float64(db.New(db.IndexInMemory, p).Run().Average().Milliseconds())
			}
			b.ReportMetric(noIdx, "virt-ms-noindex")
			b.ReportMetric(inMem, "virt-ms-inmemory")
		})
	}
}
