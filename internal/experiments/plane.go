package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/spcm"
	"epcm/internal/storage"
)

// This file is the delivery-plane throughput experiment: N applications,
// each with its own separate-process segment manager (the paper's §2.3
// configuration where "each application manages its own memory"), fault
// concurrently against one kernel. It exists to measure the fault-delivery
// plane itself — how fault throughput scales as managers are added — in
// both scheduler modes.
//
// Two throughputs are reported:
//
//   - Wall faults/sec: real elapsed time for the Go process to drive every
//     fault. Compares the serial scheduler's single-goroutine drain against
//     the concurrent scheduler's per-manager workers; on a multi-core host
//     the concurrent mode additionally overlaps manager CPU work.
//   - Model faults/sec: virtual-time throughput under the paper's hardware
//     model. The shared virtual clock is a work meter — every manager's
//     handling cost accumulates onto it — so with each manager a separate
//     process on its own processor, the run's makespan is the longest
//     per-manager lane, not the sum. The workload gives every manager
//     identical work, so the makespan is total virtual busy time divided by
//     the manager count; aggregate throughput is faults over makespan.

// PlaneOptions configures one delivery-plane throughput run.
type PlaneOptions struct {
	// Scheduler is "serial" or "concurrent".
	Scheduler string
	// Managers is how many separate-process segment managers (and driver
	// applications) to run. Default 1.
	Managers int
	// FaultsPerManager is how many distinct pages each application touches
	// (every touch is a missing fault). Default 512.
	FaultsPerManager int
	// MemoryBytes overrides physical memory; default is twice the working
	// set plus slack, so the run measures delivery, not disk.
	MemoryBytes int64
	// ExtentOrder, when non-zero, runs the superpage arm: the process-wide
	// superpage switch is turned on for the duration of the run (saved and
	// restored) and every manager is
	// configured with this manager.Config.ExtentOrder, so a sequential
	// working set is filled extent-at-a-time through contiguous grants.
	// Zero measures the base-page path with superpages off.
	ExtentOrder int
	// Drivers is how many faulting goroutines drive each manager under the
	// concurrent scheduler, each covering a contiguous sub-range of the
	// manager's pages. One driver (the default) can never queue two faults
	// behind one manager, so vectored batches only form with Drivers > 1 —
	// the configuration modelling several application threads sharing one
	// segment manager. Ignored by the serial scheduler.
	Drivers int
}

// PlaneResult is the outcome of one throughput run. Batch and Vector
// record the two retired ablation switches: every run since their
// retirement writes true, and trajectory entries recorded with either off
// keep loading (and keep their own cell keys in the sweep diffs).
type PlaneResult struct {
	Scheduler         string        `json:"scheduler"`
	Managers          int           `json:"managers"`
	Batch             bool          `json:"batch"`
	Vector            bool          `json:"vector,omitempty"`
	Drivers           int           `json:"drivers,omitempty"`
	VectoredBatches   int64         `json:"vectored_batches,omitempty"`
	FaultsPerManager  int           `json:"faults_per_manager,omitempty"`
	Faults            int64         `json:"faults"`
	AllocsPerFault    float64       `json:"allocs_per_fault"`
	Wall              time.Duration `json:"-"`
	WallMS            float64       `json:"wall_ms"`
	VirtualBusy       time.Duration `json:"-"`
	VirtualBusyMS     float64       `json:"virtual_busy_ms"`
	Makespan          time.Duration `json:"-"`
	MakespanMS        float64       `json:"makespan_ms"`
	WallFaultsPerSec  float64       `json:"wall_faults_per_sec"`
	ModelFaultsPerSec float64       `json:"model_faults_per_sec"`
	// P50FaultUS/P99FaultUS are wall-clock access-latency percentiles in
	// microseconds, sampled every latSampleEvery-th access per driver.
	P50FaultUS float64 `json:"p50_fault_us,omitempty"`
	P99FaultUS float64 `json:"p99_fault_us,omitempty"`
	// The superpage-arm columns. WallPagesPerSec is resident base pages
	// made per wall second — in the base arm it equals wall faults/sec
	// (one fault per page), in the superpage arm it is the headline
	// number since one fault fills a whole extent. HitFidelity is the
	// fraction of touched pages resident when the drivers finish.
	// TLBReachPages is resident pages per installed translation entry
	// (1.0 without superpages; up to 2^order with).
	ExtentOrder      int     `json:"extent_order,omitempty"`
	WallPagesPerSec  float64 `json:"wall_pages_per_sec,omitempty"`
	HitFidelity      float64 `json:"hit_fidelity,omitempty"`
	TLBReachPages    float64 `json:"tlb_reach_pages_per_entry,omitempty"`
	ExtentPromotions int64   `json:"extent_promotions,omitempty"`
}

// latSampleEvery is the access-latency sampling stride: every Kth Access
// per driver is timed individually. Two clock reads per K faults keeps the
// probe overhead well under a percent of the fault cost while still
// collecting thousands of samples per cell.
const latSampleEvery = 8

// PlaneThroughput boots one kernel with opt.Managers separate-process
// managers — each with its own swap store, all drawing frames from one
// SPCM — and drives every application's faults: concurrently, one driver
// goroutine per manager, under the concurrent scheduler; round-robin on the
// calling goroutine under the serial scheduler (which is single-threaded by
// design).
func PlaneThroughput(opt PlaneOptions) (*PlaneResult, error) {
	if opt.Managers <= 0 {
		opt.Managers = 1
	}
	if opt.FaultsPerManager <= 0 {
		opt.FaultsPerManager = 512
	}
	concurrent := false
	switch opt.Scheduler {
	case "", "serial":
		opt.Scheduler = "serial"
	case "concurrent":
		concurrent = true
	default:
		return nil, fmt.Errorf("experiments: unknown scheduler %q", opt.Scheduler)
	}

	// The superpage switch is process-global; save and restore it so one
	// sweep cell does not leak into the next (sweeps run cells sequentially,
	// never from parallel harness tasks). The superpage arm turns it on for
	// the duration of the run, the base arm pins it off so the cell measures
	// the per-page path even in a -super process.
	prevSuper := kernel.SuperpagesEnabled()
	kernel.SetSuperpages(opt.ExtentOrder > 0)
	defer kernel.SetSuperpages(prevSuper)

	drivers := opt.Drivers
	if drivers <= 0 || !concurrent {
		drivers = 1
	}
	if drivers > opt.FaultsPerManager {
		drivers = opt.FaultsPerManager
	}

	const frameSize = 4096
	workingSet := int64(opt.Managers) * int64(opt.FaultsPerManager) * frameSize
	memBytes := opt.MemoryBytes
	if memBytes == 0 {
		memBytes = 2*workingSet + 8<<20
	}

	mem := phys.NewMemory(phys.Config{FrameSize: frameSize, TotalBytes: memBytes})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	if concurrent {
		k.SetScheduler(kernel.NewConcurrentScheduler(k))
	}
	defer k.Scheduler().Stop()
	// The throughput harness opts into the lane fast paths the default
	// (golden) configuration leaves off: per-account frame caches over the
	// shared free list, and lane-idle free-slot prefetch.
	policy := spcm.DefaultPolicy()
	policy.LaneCacheRefill = 512
	pool := spcm.New(k, policy)

	segs := make([]*kernel.Segment, opt.Managers)
	for i := range segs {
		store := storage.NewStore(&clock, storage.NetworkServer(), frameSize)
		g, err := manager.NewGeneric(k, manager.Config{
			Name:         fmt.Sprintf("app-manager-%d", i),
			Delivery:     kernel.DeliverSeparateProcess,
			Backing:      manager.NewSwapBacking(store),
			Source:       pool,
			RequestBatch: 32,
			LanePrefetch: 256,
			ExtentOrder:  opt.ExtentOrder,
		})
		if err != nil {
			return nil, err
		}
		g.PresizeResident(opt.FaultsPerManager)
		pool.Register(g, g.ManagerName(), 1e9)
		seg, err := g.CreateManagedSegment(fmt.Sprintf("app-%d", i))
		if err != nil {
			return nil, err
		}
		if err := g.EnsureFree(8); err != nil {
			return nil, err
		}
		segs[i] = seg
	}

	// Setup is not part of the measured run. Collect its garbage now so the
	// allocator debt of building the kernel (tables, boot frames) is not paid
	// at a random point inside the measured window, then hold the collector
	// off entirely: the hot path's steady-state allocation rate is ~zero
	// (that is the point of the lock-free tables), so the only thing a
	// mid-window GC cycle could do is scan the multi-hundred-MB simulated
	// machine and distort the wall measurement.
	runtime.GC()
	gcPrev := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPrev)
	// Per-driver latency sample buffers, preallocated so appends never
	// allocate inside the measured window.
	samples := make([][]time.Duration, opt.Managers*drivers)
	for i := range samples {
		samples[i] = make([]time.Duration, 0, opt.FaultsPerManager/(drivers*latSampleEvery)+1)
	}
	clock.Reset()
	faults0 := k.Stats().Faults
	promotions0 := k.Stats().ExtentPromotions
	vecBatches0 := k.Stats().VectoredBatches
	vstart := clock.Now()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()

	var firstErr error
	if concurrent {
		// Drivers goroutines per manager, each over a contiguous, disjoint
		// sub-range of the manager's pages — several application threads
		// faulting against one manager. With more than one, faults genuinely
		// queue behind the manager's lane and vectored batches form.
		var wg sync.WaitGroup
		errs := make([]error, opt.Managers*drivers)
		for i, seg := range segs {
			for d := 0; d < drivers; d++ {
				lo := int64(d) * int64(opt.FaultsPerManager) / int64(drivers)
				hi := int64(d+1) * int64(opt.FaultsPerManager) / int64(drivers)
				wg.Add(1)
				go func(idx int, seg *kernel.Segment, lo, hi int64) {
					defer wg.Done()
					for p := lo; p < hi; p++ {
						if p%latSampleEvery == 0 {
							t0 := time.Now()
							if err := k.Access(seg, p, kernel.Write); err != nil {
								errs[idx] = err
								return
							}
							samples[idx] = append(samples[idx], time.Since(t0))
						} else if err := k.Access(seg, p, kernel.Write); err != nil {
							errs[idx] = err
							return
						}
					}
				}(i*drivers+d, seg, lo, hi)
			}
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	} else {
		for p := int64(0); p < int64(opt.FaultsPerManager) && firstErr == nil; p++ {
			for i, seg := range segs {
				if p%latSampleEvery == 0 {
					t0 := time.Now()
					if err := k.Access(seg, p, kernel.Write); err != nil {
						firstErr = err
						break
					}
					samples[i] = append(samples[i], time.Since(t0))
				} else if err := k.Access(seg, p, kernel.Write); err != nil {
					firstErr = err
					break
				}
			}
		}
	}
	// The measured window ends when the last driver returns; the invariant
	// audit below walks every frame and page, which is verification work,
	// not delivery throughput.
	wall := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	if firstErr != nil {
		return nil, firstErr
	}
	// The run is quiescent again: every driver returned and every delivery
	// was answered, so the market invariants must hold in either mode.
	if err := pool.CheckInvariants(); err != nil {
		return nil, err
	}

	res := &PlaneResult{
		Scheduler:        opt.Scheduler,
		Managers:         opt.Managers,
		Batch:            true,
		Vector:           true,
		Drivers:          drivers,
		VectoredBatches:  k.Stats().VectoredBatches - vecBatches0,
		FaultsPerManager: opt.FaultsPerManager,
		Faults:           k.Stats().Faults - faults0,
		Wall:             wall,
		VirtualBusy:      clock.Now() - vstart,
		ExtentOrder:      opt.ExtentOrder,
		ExtentPromotions: k.Stats().ExtentPromotions - promotions0,
	}
	var lat []time.Duration
	for _, s := range samples {
		lat = append(lat, s...)
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		res.P50FaultUS = float64(lat[len(lat)/2].Nanoseconds()) / 1000
		res.P99FaultUS = float64(lat[len(lat)*99/100].Nanoseconds()) / 1000
	}
	// Post-window audit of what the drivers built: every touched page
	// should be resident (hit fidelity 1.0 — reclaim never ran at this
	// sizing), and with superpages on, each live extent collapses
	// 2^order page translations into one entry, which is the TLB reach.
	resident, liveExtents := int64(0), int64(0)
	for _, seg := range segs {
		for p := int64(0); p < int64(opt.FaultsPerManager); p++ {
			if seg.HasPage(p) {
				resident++
			}
		}
		liveExtents += int64(seg.ExtentCount())
	}
	touched := int64(opt.Managers) * int64(opt.FaultsPerManager)
	res.HitFidelity = float64(resident) / float64(touched)
	if entries := resident - liveExtents*(int64(1)<<uint(opt.ExtentOrder)-1); entries > 0 {
		res.TLBReachPages = float64(resident) / float64(entries)
	}
	if res.Faults > 0 {
		// Heap allocations per fault over the measured window — the
		// steady-state number the lock-free hot path drives to zero.
		res.AllocsPerFault = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(res.Faults)
	}
	res.Makespan = res.VirtualBusy / time.Duration(opt.Managers)
	res.WallMS = float64(res.Wall.Microseconds()) / 1000
	res.VirtualBusyMS = float64(res.VirtualBusy.Microseconds()) / 1000
	res.MakespanMS = float64(res.Makespan.Microseconds()) / 1000
	if s := res.Wall.Seconds(); s > 0 {
		res.WallFaultsPerSec = float64(res.Faults) / s
		res.WallPagesPerSec = float64(touched) / s
	}
	if s := res.Makespan.Seconds(); s > 0 {
		res.ModelFaultsPerSec = float64(res.Faults) / s
	}
	return res, nil
}

// PlaneTable runs the delivery-plane scaling matrix (both schedulers over
// the given manager counts, default 1 and 4) and renders it as a table for
// cmd/reproduce -plane. It is not part of the default reproduce output:
// wall-clock columns vary run to run, so it stays out of the golden file.
// It also returns the raw runs so the CLI can append them to
// BENCH_plane.json.
func PlaneTable(faultsPerManager int, managers []int) (*Report, []PlaneResult, error) {
	if len(managers) == 0 {
		managers = []int{1, 4}
	}
	rep := &Report{Table: "plane"}
	b := &bytes.Buffer{}
	header(b, "Delivery-Plane Fault Throughput (not in paper; plane scaling)")
	fmt.Fprintf(b, "%-12s %9s %10s %14s %16s %16s\n",
		"Scheduler", "Managers", "Faults", "Makespan(ms)", "Model faults/s", "Wall faults/s")
	var base float64
	var runs []PlaneResult
	ok := true
	for _, sched := range []string{"serial", "concurrent"} {
		for _, n := range managers {
			r, err := PlaneThroughput(PlaneOptions{
				Scheduler:        sched,
				Managers:         n,
				FaultsPerManager: faultsPerManager,
			})
			if err != nil {
				return nil, nil, err
			}
			fmt.Fprintf(b, "%-12s %9d %10d %14.2f %16.0f %16.0f\n",
				r.Scheduler, r.Managers, r.Faults, r.MakespanMS,
				r.ModelFaultsPerSec, r.WallFaultsPerSec)
			rep.Events += r.Faults
			rep.Measures = append(rep.Measures, Measure{
				Name:     fmt.Sprintf("plane_%s_%dmgr_model_faults_per_sec", r.Scheduler, r.Managers),
				Measured: r.ModelFaultsPerSec,
				Unit:     "faults/s",
			})
			runs = append(runs, *r)
			if sched == "serial" && n == managers[0] {
				base = r.ModelFaultsPerSec
			}
			if n == 4 && base > 0 && r.ModelFaultsPerSec < 2*base {
				ok = false
			}
		}
	}
	rep.OK = ok
	rep.Output = b.Bytes()
	return rep, runs, nil
}
