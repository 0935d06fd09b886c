package experiments

import (
	"fmt"
	"sync"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/spcm"
	"epcm/internal/storage"
)

// This file is the delivery-plane cell driver: N applications, each with
// its own separate-process segment manager (the paper's §2.3 configuration
// where "each application manages its own memory"), fault against one
// kernel in either scheduler mode. It reports what the cost model says, not
// what the host did: the shared virtual clock is a work meter — every
// manager's handling cost accumulates onto it — so with each manager a
// separate process on its own processor, the run's makespan is the longest
// per-manager lane, not the sum. The workload gives every manager identical
// work, so the makespan is total virtual busy time divided by the manager
// count. Wall-clock questions about the same path go to `go run -C bench .`.

// PlaneOptions configures one delivery-plane run.
type PlaneOptions struct {
	// Scheduler is "serial" or "concurrent".
	Scheduler string
	// Managers is how many separate-process segment managers (and driver
	// applications) to run. Default 1.
	Managers int
	// FaultsPerManager is how many distinct pages each application touches.
	// Default 512.
	FaultsPerManager int
	// ExtentOrder, when non-zero, runs the superpage arm: the cell's kernel
	// boots with the superpage plane on and every manager is configured
	// with this manager.Config.ExtentOrder, so a sequential working set is
	// filled extent-at-a-time through contiguous grants. Zero runs the
	// base-page path with superpages off.
	ExtentOrder int
	// Drivers is how many faulting goroutines drive each manager under the
	// concurrent scheduler, each covering a contiguous sub-range of the
	// manager's pages. One driver (the default) can never queue two faults
	// behind one manager, so vectored batches only form with Drivers > 1 —
	// the configuration modelling several application threads sharing one
	// segment manager. Ignored by the serial scheduler.
	Drivers int
}

// PlaneResult is the outcome of one run. Faults, ExtentPromotions,
// HitFidelity and TLBReachPages are exact in both scheduler modes;
// VirtualBusy is exact under the serial scheduler and varies in its low
// digits from run to run under the concurrent one (it depends on how the
// drivers interleave), so the sweeps print it for serial rows only.
type PlaneResult struct {
	Faults           int64
	VectoredBatches  int64
	ExtentPromotions int64
	// VirtualBusy is the virtual time charged by all managers together;
	// Makespan is one manager's share of it.
	VirtualBusy time.Duration
	Makespan    time.Duration
	// HitFidelity is the fraction of touched pages resident when the
	// drivers finish. TLBReachPages is resident pages per installed
	// translation entry (1.0 without superpages; up to 2^order with).
	HitFidelity   float64
	TLBReachPages float64
}

// ModelFaultsPerSec is aggregate fault throughput under the paper's
// hardware model: faults over the per-manager makespan.
func (r *PlaneResult) ModelFaultsPerSec() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Faults) / r.Makespan.Seconds()
}

// PlaneThroughput boots one kernel with opt.Managers separate-process
// managers — each with its own swap store, all drawing frames from one
// SPCM — and drives every application's faults: concurrently, opt.Drivers
// goroutines per manager, under the concurrent scheduler; round-robin on
// the calling goroutine under the serial scheduler (which is
// single-threaded by design).
func PlaneThroughput(opt PlaneOptions) (*PlaneResult, error) {
	if opt.Managers <= 0 {
		opt.Managers = 1
	}
	if opt.FaultsPerManager <= 0 {
		opt.FaultsPerManager = 512
	}
	concurrent, err := kernel.ParseScheduler(opt.Scheduler)
	if err != nil {
		return nil, err
	}
	drivers := opt.Drivers
	if drivers <= 0 || !concurrent {
		drivers = 1
	}
	if drivers > opt.FaultsPerManager {
		drivers = opt.FaultsPerManager
	}

	// Twice the working set plus slack, so the run exercises delivery, not
	// replacement.
	const frameSize = 4096
	touched := int64(opt.Managers) * int64(opt.FaultsPerManager)
	mem := phys.NewMemory(phys.Config{FrameSize: frameSize, TotalBytes: 2*touched*frameSize + 8<<20})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{Concurrent: concurrent, Superpages: opt.ExtentOrder > 0})
	defer k.Scheduler().Stop()
	// The cell opts into the lane fast paths the default (golden)
	// configuration leaves off: per-account frame caches over the shared
	// free list, and lane-idle free-slot prefetch.
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

	// Setup is not part of the run.
	clock.Reset()
	before := k.Stats()

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
						if err := k.Access(seg, p, kernel.Write); err != nil {
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
			for _, seg := range segs {
				if err := k.Access(seg, p, kernel.Write); err != nil {
					firstErr = err
					break
				}
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// The run is quiescent again: every driver returned and every delivery
	// was answered, so the market invariants must hold in either mode.
	if err := pool.CheckInvariants(); err != nil {
		return nil, err
	}

	after := k.Stats()
	res := &PlaneResult{
		Faults:           after.Faults - before.Faults,
		VectoredBatches:  after.VectoredBatches - before.VectoredBatches,
		ExtentPromotions: after.ExtentPromotions - before.ExtentPromotions,
		VirtualBusy:      clock.Now(),
	}
	res.Makespan = res.VirtualBusy / time.Duration(opt.Managers)
	// Audit of what the drivers built: every touched page should be
	// resident (hit fidelity 1.0 — reclaim never ran at this sizing), and
	// with superpages on, each live extent collapses 2^order page
	// translations into one entry, which is the TLB reach.
	resident, liveExtents := int64(0), int64(0)
	for _, seg := range segs {
		for p := int64(0); p < int64(opt.FaultsPerManager); p++ {
			if seg.HasPage(p) {
				resident++
			}
		}
		liveExtents += int64(seg.ExtentCount())
	}
	res.HitFidelity = float64(resident) / float64(touched)
	if entries := resident - liveExtents*(int64(1)<<uint(opt.ExtentOrder)-1); entries > 0 {
		res.TLBReachPages = float64(resident) / float64(entries)
	}
	return res, nil
}
