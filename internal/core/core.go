// Package core composes the complete V++ system of the paper: simulated
// physical memory, the kernel virtual memory system (package kernel), a
// file server (package storage), the System Page Cache Manager with its
// memory market (package spcm), and the default segment manager (package
// defaultmgr) — the "first team" of memory-resident servers started
// immediately after kernel initialization (§2.3).
//
// Applications that want external page-cache management create their own
// managers (package manager) registered with the SPCM; conventional
// applications run oblivious on the default manager.
package core

import (
	"fmt"

	"epcm/internal/defaultmgr"
	"epcm/internal/faultinject"
	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/spcm"
	"epcm/internal/storage"
)

// Config describes the machine and policy to boot.
type Config struct {
	// MemoryBytes is physical memory (default 128 MB, the paper's
	// evaluation machine).
	MemoryBytes int64
	// FrameSize is the base page size (default 4 KB).
	FrameSize int
	// CacheColors and Nodes describe the cache and NUMA geometry.
	CacheColors int
	Nodes       int
	// StoreData selects whether frames carry real bytes (turn off for
	// large activity-only simulations).
	StoreData bool
	// Market is the SPCM policy (default spcm.DefaultPolicy).
	Market *spcm.Policy
	// Storage is the file-server latency model (default: diskless network
	// server, as the paper's V++ machine).
	Storage *storage.LatencyModel
	// DefaultManagerIncome funds the default manager's account (default:
	// effectively unlimited, since it serves everyone).
	DefaultManagerIncome float64
	// FaultPlan, when non-nil, arms the deterministic fault plane: the
	// plan's seeded schedule is wired into the storage, kernel-delivery
	// and SPCM-grant hook seams, and System.Chaos reports what it did.
	// Nil (the default) leaves every seam a dead branch — reproduce
	// output and benchmarks are unaffected.
	FaultPlan *faultinject.Plan
	// Scheduler selects the fault-delivery plane scheduler: "serial" (the
	// deterministic default, also ""), or "concurrent" (one worker
	// goroutine per manager, sharded kernel caches).
	Scheduler string
	// ReclaimPolicy names the replacement policy this system's managers
	// boot with when their manager.Config leaves Policy nil: "clock" (the
	// §2.2 default, also ""), "lfu" or "random" (manager.PolicyNames). It
	// applies to the default manager and to every manager System's
	// constructors create.
	ReclaimPolicy string
	// Superpages turns on this system's superpage extent plane
	// (kernel.Config.Superpages): managers configured with a non-zero
	// manager.Config.ExtentOrder promote naturally aligned runs of base
	// pages into single mapping/TLB entries and the kernel applies
	// extent-granular fault costs.
	Superpages bool
}

// System is a booted V++ machine.
type System struct {
	Clock   *sim.Clock
	Cost    *sim.CostModel
	Mem     *phys.Memory
	Kernel  *kernel.Kernel
	Store   *storage.Store
	SPCM    *spcm.SPCM
	Default *defaultmgr.Default
	// Chaos is the armed fault plane, or nil when Config.FaultPlan was nil.
	Chaos *faultinject.Plane

	// reclaimPolicy is Config.ReclaimPolicy, applied to every app manager
	// whose Config leaves Policy nil.
	reclaimPolicy string
}

// Boot builds and starts a system.
func Boot(cfg Config) (*System, error) {
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 128 << 20
	}
	if cfg.FrameSize == 0 {
		cfg.FrameSize = 4096
	}
	if cfg.CacheColors == 0 {
		cfg.CacheColors = 16
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 1
	}
	mem := phys.NewMemory(phys.Config{
		FrameSize:   cfg.FrameSize,
		TotalBytes:  cfg.MemoryBytes,
		CacheColors: cfg.CacheColors,
		Nodes:       cfg.Nodes,
		StoreData:   cfg.StoreData,
	})
	clock := &sim.Clock{}
	cost := sim.DECstation5000()
	concurrent, err := kernel.ParseScheduler(cfg.Scheduler)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	k := kernel.New(mem, clock, cost, kernel.Config{Concurrent: concurrent, Superpages: cfg.Superpages})

	latency := storage.NetworkServer()
	if cfg.Storage != nil {
		latency = *cfg.Storage
	}
	store := storage.NewStore(clock, latency, cfg.FrameSize)

	policy := spcm.DefaultPolicy()
	if cfg.Market != nil {
		policy = *cfg.Market
	}
	s := spcm.New(k, policy)

	dcfg := defaultmgr.Config{Source: s}
	if cfg.ReclaimPolicy != "" {
		p, err := manager.NewPolicy(cfg.ReclaimPolicy)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		dcfg.Policy = p
	}
	d, err := defaultmgr.New(k, store, dcfg)
	if err != nil {
		return nil, err
	}
	income := cfg.DefaultManagerIncome
	if income == 0 {
		income = 1e9 // the system's own server is never rationed
	}
	s.Register(d.Generic, "default-segment-manager", income)

	// Manager-failure recovery is always wired (it is part of the system,
	// not of the fault plane): a revoked manager's segments fall back to
	// the default manager, which adopts their resident pages, and the SPCM
	// repossesses the dead manager's free-page segment.
	k.SetDefaultManager(d)
	k.OnRevoke(func(dead kernel.Manager, adopted []*kernel.Segment) {
		if g, ok := dead.(*manager.Generic); ok {
			_, _ = s.Revoke(g)
		}
		// Adoption runs in the default manager's delivery context
		// (Scheduler.Exec), so under the concurrent scheduler it is
		// serialized with the default manager's own fault handling and
		// the manager needs no internal locking.
		k.Scheduler().Exec(d, func() {
			for _, seg := range adopted {
				d.AdoptSegment(seg)
			}
		})
	})

	sys := &System{
		Clock:         clock,
		Cost:          cost,
		Mem:           mem,
		Kernel:        k,
		Store:         store,
		SPCM:          s,
		Default:       d,
		reclaimPolicy: cfg.ReclaimPolicy,
	}
	if cfg.FaultPlan != nil {
		plane := faultinject.New(*cfg.FaultPlan, clock)
		store.SetFaultHook(plane.StorageFault)
		s.SetGrantGate(plane.GrantGate)
		k.SetInterceptor(plane.Intercept)
		sys.Chaos = plane
	}

	// Boot-time kernel operations are not part of any measured run.
	clock.Reset()
	return sys, nil
}

// NewAppManager creates an application-specific segment manager, under the
// rule every manager constructor of System follows: a Config.Source the
// caller set (a FixedPool, say) stays the manager's frame source and no
// account is opened; otherwise the manager draws on the SPCM through a new
// account funded with income drams per second. A nil Config.Policy takes
// the system's Config.ReclaimPolicy.
func (s *System) NewAppManager(cfg manager.Config, income float64) (*manager.Generic, *spcm.Account, error) {
	return s.newManager(cfg, income, func(cfg manager.Config) (*manager.Generic, error) {
		return manager.NewGeneric(s.Kernel, cfg)
	})
}

// NewColoring creates a page-coloring manager (manager.NewColoring) under
// NewAppManager's rule.
func (s *System) NewColoring(cfg manager.Config, colors int, income float64) (*manager.Generic, *spcm.Account, error) {
	return s.newManager(cfg, income, func(cfg manager.Config) (*manager.Generic, error) {
		return manager.NewColoring(s.Kernel, cfg, colors)
	})
}

// NewPlacement creates a NUMA-placement manager (manager.NewPlacement)
// under NewAppManager's rule.
func (s *System) NewPlacement(cfg manager.Config, nodeOf func(f kernel.Fault) int, income float64) (*manager.Generic, *spcm.Account, error) {
	return s.newManager(cfg, income, func(cfg manager.Config) (*manager.Generic, error) {
		return manager.NewPlacement(s.Kernel, cfg, nodeOf)
	})
}

// NewPrefetch creates a read-ahead manager (manager.NewPrefetch) under
// NewAppManager's rule: it reads the system's file server depth pages
// ahead, through an overlapped device with the server's latency.
func (s *System) NewPrefetch(cfg manager.Config, depth int, income float64) (*manager.Prefetch, *spcm.Account, error) {
	var p *manager.Prefetch
	_, a, err := s.newManager(cfg, income, func(cfg manager.Config) (*manager.Generic, error) {
		dev := manager.NewAsyncDevice(s.Clock, s.Store.Latency())
		var err error
		if p, err = manager.NewPrefetch(s.Kernel, cfg, dev, s.Store, depth); err != nil {
			return nil, err
		}
		return p.Generic, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return p, a, nil
}

// newManager is the one place NewAppManager's rule is written: build gets
// cfg with its Source and Policy settled, and a manager left on the SPCM is
// registered with it.
func (s *System) newManager(cfg manager.Config, income float64, build func(manager.Config) (*manager.Generic, error)) (*manager.Generic, *spcm.Account, error) {
	market := cfg.Source == nil
	if market {
		cfg.Source = s.SPCM
	}
	if cfg.Policy == nil && s.reclaimPolicy != "" {
		p, err := manager.NewPolicy(s.reclaimPolicy)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		cfg.Policy = p
	}
	g, err := build(cfg)
	if err != nil {
		return nil, nil, err
	}
	if !market {
		return g, nil, nil
	}
	return g, s.SPCM.Register(g, g.ManagerName(), income), nil
}

// NewFixedPool stocks a manager.FixedPool with the frames [startPFN,
// startPFN+nFrames), withdrawn from the SPCM first so that the pool owns
// them alone. A manager whose Config.Source is the pool is granted frames
// in page order, with no account and no rent.
func (s *System) NewFixedPool(nFrames, startPFN int64) (*manager.FixedPool, error) {
	if err := s.SPCM.Withdraw(startPFN, nFrames); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return manager.NewFixedPool(s.Kernel, nFrames, startPFN)
}

// Shutdown stops the delivery-plane scheduler, releasing the per-manager
// worker goroutines of the concurrent mode. The serial scheduler has
// nothing to release, so calling Shutdown is always safe (and idempotent).
func (s *System) Shutdown() { s.Kernel.Scheduler().Stop() }
