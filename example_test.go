package epcm_test

import (
	"fmt"
	"log"
	"sync"
	"time"

	"epcm"
	"epcm/internal/manager"
	"epcm/internal/sim"
)

// Example shows the minimal external-page-cache-management flow: boot a
// system, create an application-specific segment manager, and take a fault
// through it.
func Example() {
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 8 << 20, StoreData: true})
	if err != nil {
		log.Fatal(err)
	}
	mgr, _, err := sys.NewAppManager(epcm.ManagerConfig{Name: "example"}, 1000)
	if err != nil {
		log.Fatal(err)
	}
	seg, err := mgr.CreateManagedSegment("data")
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Kernel.Access(seg, 0, epcm.Write); err != nil {
		log.Fatal(err)
	}
	fmt.Println("resident pages:", mgr.ResidentPages())
	// Output: resident pages: 1
}

// ExampleSystem_NewAppManager demonstrates physical placement control: the
// manager requests frames only from a specific physical range, and the
// application can verify the placement through GetPageAttributes.
func ExampleSystem_NewAppManager() {
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 8 << 20, StoreData: true})
	if err != nil {
		log.Fatal(err)
	}
	mgr, _, err := sys.NewAppManager(epcm.ManagerConfig{
		Name: "placed",
		Constraint: func(f epcm.Fault) epcm.FrameRange {
			return epcm.FrameRange{Lo: 64, Hi: 128, Color: -1, Node: -1}
		},
	}, 1000)
	if err != nil {
		log.Fatal(err)
	}
	seg, err := mgr.CreateManagedSegment("pinned-range")
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Kernel.Access(seg, 0, epcm.Write); err != nil {
		log.Fatal(err)
	}
	attrs, err := sys.Kernel.GetPageAttributes(seg, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("frame in requested range:", attrs[0].PFN >= 64 && attrs[0].PFN < 128)
	// Output: frame in requested range: true
}

// ExampleNewMRUPolicy shows installing an application-specific replacement
// policy — the paper's specializable "page replacement selection routine".
func ExampleNewMRUPolicy() {
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 8 << 20, StoreData: true})
	if err != nil {
		log.Fatal(err)
	}
	mgr, _, err := sys.NewAppManager(epcm.ManagerConfig{
		Name:    "scanner",
		Backing: manager.NewSwapBacking(sys.Store),
		Policy:  epcm.NewMRUPolicy(),
	}, 1000)
	if err != nil {
		log.Fatal(err)
	}
	seg, err := mgr.CreateManagedSegment("matrix")
	if err != nil {
		log.Fatal(err)
	}
	for p := int64(0); p < 8; p++ {
		if err := sys.Kernel.Access(seg, p, epcm.Write); err != nil {
			log.Fatal(err)
		}
	}
	// Reclaim two frames: the MRU policy takes the highest pages.
	n, err := mgr.Reclaim(2, epcm.AnyFrame())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reclaimed:", n, "page 7 resident:", seg.HasPage(7), "page 0 resident:", seg.HasPage(0))
	// Output: reclaimed: 2 page 7 resident: false page 0 resident: true
}

// ExampleNewPolicy gives one segment a replacement policy of its own by
// giving it a manager of its own: the first manager keeps the default clock
// sweep over the heap, the second runs true LRU over its one segment. After
// one second-chance pass clears the reference bits, LRU evicts the coldest
// (lowest-numbered, never re-touched) pages first.
func ExampleNewPolicy() {
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 8 << 20, StoreData: true})
	if err != nil {
		log.Fatal(err)
	}
	heapMgr, _, err := sys.NewAppManager(epcm.ManagerConfig{
		Name:    "heap-manager",
		Backing: manager.NewSwapBacking(sys.Store),
	}, 1000)
	if err != nil {
		log.Fatal(err)
	}
	lru, err := epcm.NewPolicy("lru")
	if err != nil {
		log.Fatal(err)
	}
	lruMgr, _, err := sys.NewAppManager(epcm.ManagerConfig{
		Name:    "lru-manager",
		Backing: manager.NewSwapBacking(sys.Store),
		Policy:  lru,
	}, 1000)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := heapMgr.CreateManagedSegment("heap"); err != nil {
		log.Fatal(err)
	}
	seg, err := lruMgr.CreateManagedSegment("lru-data")
	if err != nil {
		log.Fatal(err)
	}

	for p := int64(0); p < 8; p++ {
		if err := sys.Kernel.Access(seg, p, epcm.Write); err != nil {
			log.Fatal(err)
		}
	}
	// Reclaim two frames: LRU takes the two oldest pages.
	n, err := lruMgr.Reclaim(2, epcm.AnyFrame())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("policies:", heapMgr.Policy().PolicyName(), lruMgr.Policy().PolicyName())
	fmt.Println("reclaimed:", n, "page 0 resident:", seg.HasPage(0), "page 7 resident:", seg.HasPage(7))
	// Output:
	// policies: clock lru
	// reclaimed: 2 page 0 resident: false page 7 resident: true
}

// ExampleFaultPlan arms the deterministic fault plane: seeded storage
// errors fly while the workload runs, and the named manager is crashed
// after its 100th fault delivery. The kernel revokes the dead manager, the
// default manager adopts its segments, and every page stays reachable.
func ExampleFaultPlan() {
	sys, err := epcm.Boot(epcm.Config{
		MemoryBytes: 1 << 20,
		StoreData:   true,
		FaultPlan: &epcm.FaultPlan{
			Seed:             42,
			FetchErrorProb:   0.05, // injected backing-store failures...
			TransientStorage: true, // ...marked retryable
			CrashManager:     "mine",
			CrashAtFault:     100, // kill "mine" at its 101st fault delivery
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	mgr, _, err := sys.NewAppManager(epcm.ManagerConfig{
		Name:       "mine",
		Backing:    epcm.NewSwapBacking(sys.Store),
		MaxRetries: 3, // retry transient storage errors with backoff
	}, 1000)
	if err != nil {
		log.Fatal(err)
	}
	seg, err := mgr.CreateManagedSegment("data")
	if err != nil {
		log.Fatal(err)
	}
	for p := int64(0); p < 400; p++ {
		_ = sys.Kernel.Access(seg, p, epcm.Write) // chaos flies here
	}
	sys.Chaos.Disarm()
	reachable := true
	for p := int64(0); p < 400; p++ {
		if err := sys.Kernel.Access(seg, p, epcm.Read); err != nil {
			reachable = false
		}
	}
	fmt.Println("crashed:", sys.Chaos.Crashed("mine"),
		"revocations:", sys.Kernel.Stats().Revocations,
		"reachable:", reachable)
	// Output: crashed: true revocations: 1 reachable: true
}

// Example_shardedTime drives the conservative parallel virtual-time engine
// directly: each shard advances its own clock, and cross-shard events must
// be scheduled at or beyond the send horizon (sender's now + lookahead),
// which is what lets shards drain whole windows concurrently without ever
// observing an event from the past. The lookahead is the cost model's
// minimum delivery latency — no cross-manager interaction is cheaper than
// a trap plus an upcall.
func Example_shardedTime() {
	cost := sim.DECstation5000()
	lookahead := cost.MinDeliveryLatency() // Trap + Upcall

	env := sim.NewShardedEnv(&sim.Clock{}, 2, lookahead)
	s0, s1 := env.Shard(0), env.Shard(1)

	s1.Go("consumer", func(p *sim.Proc) {
		p.Sleep(5 * time.Microsecond) // local work on shard 1's clock
	})
	s0.Go("producer", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond)
		// The earliest legal delivery time for a cross-shard event.
		s0.Send(s1, p.Now()+lookahead, func() {
			fmt.Println("delivered on shard 1 at", s1.Now())
		})
	})

	env.Run()
	fmt.Println("engine:", env.EngineName(),
		"shard 0 clock:", s0.Now(), "shard 1 clock:", s1.Now())
	// Output:
	// delivered on shard 1 at 50µs
	// engine: sharded shard 0 clock: 10µs shard 1 clock: 50µs
}

// ExampleConcurrentScheduler boots the fault-delivery plane in concurrent
// mode: each segment manager runs on its own worker goroutine (the paper's
// separate manager processes), so applications on different managers fault
// in parallel against one kernel. Costs still accrue to the shared virtual
// clock, so results are identical to the serial scheduler's.
func ExampleConcurrentScheduler() {
	sys, err := epcm.Boot(epcm.Config{
		MemoryBytes: 32 << 20,
		Scheduler:   epcm.ConcurrentScheduler, // per-manager worker goroutines
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown() // retire the worker goroutines

	const apps = 4
	segs := make([]*epcm.Segment, apps)
	for i := range segs {
		mgr, _, err := sys.NewAppManager(epcm.ManagerConfig{
			Name:     fmt.Sprintf("app-%d", i),
			Delivery: epcm.DeliverSeparateProcess,
		}, 1000)
		if err != nil {
			log.Fatal(err)
		}
		if segs[i], err = mgr.CreateManagedSegment(fmt.Sprintf("data-%d", i)); err != nil {
			log.Fatal(err)
		}
	}

	// One goroutine per application; each faults against its own manager.
	var wg sync.WaitGroup
	for _, seg := range segs {
		wg.Add(1)
		go func(seg *epcm.Segment) {
			defer wg.Done()
			for p := int64(0); p < 64; p++ {
				if err := sys.Kernel.Access(seg, p, epcm.Write); err != nil {
					log.Fatal(err)
				}
			}
		}(seg)
	}
	wg.Wait()

	fmt.Println("faults:", sys.Kernel.Stats().Faults)
	// Output: faults: 256
}

// Example_superpages enables the superpage extent fast path: the manager
// pages in whole aligned extents of 2^4 = 16 base pages over physically
// contiguous frames (one batched migration charging a single SuperpageOp),
// then promotes each extent to one span mapping entry and one wide TLB way.
// 256 sequential page touches thus take 16 faults, and the whole working
// set is reachable through 16 translation entries instead of 256. Both
// halves of the gate must be set — Config.Superpages (this system's kernel)
// and ManagerConfig.ExtentOrder (per manager) — so default-configured
// systems, in this process or any other, are unaffected.
func Example_superpages() {
	sys, err := epcm.Boot(epcm.Config{
		MemoryBytes: 8 << 20,
		Superpages:  true, // this system's kernel runs the extent plane
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()

	mgr, _, err := sys.NewAppManager(epcm.ManagerConfig{
		Name:        "grid",
		ExtentOrder: 4, // promote aligned 16-page extents
	}, 1e6)
	if err != nil {
		log.Fatal(err)
	}
	seg, err := mgr.CreateManagedSegment("data")
	if err != nil {
		log.Fatal(err)
	}
	for p := int64(0); p < 256; p++ {
		if err := sys.Kernel.Access(seg, p, epcm.Write); err != nil {
			log.Fatal(err)
		}
	}

	st := mgr.SuperStats()
	fmt.Println("faults:", sys.Kernel.Stats().Faults,
		"extents:", seg.ExtentCount(),
		"promotions:", st.Promotions,
		"extent fills:", st.ExtentFills)
	// Output: faults: 16 extents: 16 promotions: 16 extent fills: 16
}
