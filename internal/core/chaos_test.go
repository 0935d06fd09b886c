package core

// The chaos suite: the acceptance gate for the deterministic fault plane.
// Each scenario boots a small system with an armed fault plan, runs a fixed
// seeded workload while the plane injects failures, and then checks the
// kernel/SPCM invariants — frame conservation, free-pool sanity and dram
// conservation must hold across *any* injected schedule. Sixteen fixed
// seeds run per injection kind (storage errors, delivery loss, frame
// exhaustion, manager crash); scripts/check.sh runs them under -race.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"epcm/internal/faultinject"
	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/sim"
	"epcm/internal/storage"
)

// chaosSeeds are the 16 fixed seeds every scenario runs under.
var chaosSeeds = func() []uint64 {
	seeds := make([]uint64, 16)
	for i := range seeds {
		seeds[i] = 0x5EED_0000 + uint64(i)
	}
	return seeds
}()

// chaosSchedulers: every scenario runs under both delivery-plane modes, so
// the concurrent scheduler faces the same injected failures (crash recovery
// included) as the deterministic serial one.
var chaosSchedulers = []string{"serial", "concurrent"}

// chaosSystem boots a 256-frame machine with the given plan armed, an
// application manager named "victim-manager" (swap-backed, with a retry
// budget) and one managed segment. The workload's footprint exceeds
// physical memory, so reclaim, writeback and re-fetch traffic all happen.
func chaosSystem(t testing.TB, plan faultinject.Plan, sched string) (*System, *manager.Generic, *kernel.Segment) {
	t.Helper()
	return chaosSystemPolicy(t, plan, sched, "", nil)
}

// chaosSystemPolicy is chaosSystem with a boot replacement policy: both the
// default manager and the victim manager run it, so chaos schedules (crash
// recovery and adoption included) exercise the whole policy plane. A
// non-nil own is the victim manager's application policy instead.
func chaosSystemPolicy(t testing.TB, plan faultinject.Plan, sched, policy string, own manager.Policy) (*System, *manager.Generic, *kernel.Segment) {
	t.Helper()
	sys, err := Boot(Config{MemoryBytes: 1 << 20, StoreData: true, FaultPlan: &plan, Scheduler: sched, ReclaimPolicy: policy})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := sys.NewAppManager(manager.Config{
		Name:       "victim-manager",
		Backing:    manager.NewSwapBacking(sys.Store),
		MaxRetries: 3,
		Policy:     own,
	}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := g.CreateManagedSegment("victim-data")
	if err != nil {
		t.Fatal(err)
	}
	return sys, g, seg
}

// tolerable reports whether an error is an expected consequence of
// injection. Anything else is a bug the chaos run surfaced.
func tolerable(err error) bool {
	return errors.Is(err, kernel.ErrManagerFailed) ||
		errors.Is(err, kernel.ErrManagerCrashed) ||
		errors.Is(err, kernel.ErrFaultLoop) ||
		errors.Is(err, manager.ErrNoMemory) ||
		errors.Is(err, manager.ErrRetriesExhausted) ||
		errors.Is(err, storage.ErrInjected)
}

// chaosWorkload drives a deterministic mixed workload: sequential and
// seeded-random writes/reads over the victim segment (forcing fills,
// reclaims and writebacks), plus cached-file traffic through the default
// manager. It returns the number of tolerated failures.
func chaosWorkload(t testing.TB, sys *System, seg *kernel.Segment, seed uint64) int {
	t.Helper()
	// Pre-populate a file for the default manager without injection: setup
	// is not part of the measured schedule, and Preload panics on error.
	sys.Chaos.Disarm()
	sys.Store.Preload("chaos-doc", 32, func(b int64, buf []byte) { buf[0] = byte(b) })
	f, err := sys.Default.OpenFile("chaos-doc")
	if err != nil {
		t.Fatal(err)
	}
	sys.Chaos.Arm()

	tolerated := 0
	note := func(err error) {
		if err == nil {
			return
		}
		if !tolerable(err) {
			t.Fatalf("intolerable error under chaos: %v", err)
		}
		tolerated++
	}
	r := sim.NewRNG(seed + 0x77)
	buf := make([]byte, 4096)
	for i := 0; i < 2400; i++ {
		switch i % 6 {
		case 0, 1, 2:
			// Sequential-ish writes over a footprint (600 pages) larger
			// than physical memory (256 frames): forces grants, reclaims,
			// writebacks and re-fetches.
			note(sys.Kernel.Access(seg, int64(i%600), kernel.Write))
		case 3:
			note(sys.Kernel.Access(seg, r.Int63n(600), kernel.Read))
		case 4:
			note(f.ReadBlock(r.Int63n(32), buf))
		case 5:
			note(f.WriteBlock(r.Int63n(32), buf))
		}
	}
	return tolerated
}

func checkChaosInvariants(t testing.TB, sys *System) {
	t.Helper()
	if err := sys.SPCM.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v\n%s", err, strings.Join(sys.Chaos.EventLog(), "\n"))
	}
}

// TestChaosStorageErrors: injected fetch/store errors and torn writes,
// marked transient so the manager retry path engages.
func TestChaosStorageErrors(t *testing.T) {
	for _, sched := range chaosSchedulers {
		for _, seed := range chaosSeeds {
			t.Run(fmt.Sprintf("%s/seed=%#x", sched, seed), func(t *testing.T) {
				sys, g, seg := chaosSystem(t, faultinject.Plan{
					Seed:             seed,
					FetchErrorProb:   0.08,
					StoreErrorProb:   0.08,
					TornWriteProb:    0.3,
					TransientStorage: true,
				}, sched)
				chaosWorkload(t, sys, seg, seed)
				checkChaosInvariants(t, sys)
				if sum := sys.Chaos.Summary(); sum.FetchErrors+sum.StoreErrors == 0 {
					t.Fatal("schedule injected no storage errors")
				}
				if g.Stats().Retries == 0 {
					t.Fatal("transient errors never engaged the retry path")
				}
			})
		}
	}
}

// TestChaosDeliveryLoss: dropped and delayed fault deliveries.
func TestChaosDeliveryLoss(t *testing.T) {
	for _, sched := range chaosSchedulers {
		for _, seed := range chaosSeeds {
			t.Run(fmt.Sprintf("%s/seed=%#x", sched, seed), func(t *testing.T) {
				sys, _, seg := chaosSystem(t, faultinject.Plan{
					Seed:              seed,
					DropDeliveryProb:  0.10,
					DelayDeliveryProb: 0.10,
					DeliveryDelay:     2 * time.Millisecond,
				}, sched)
				chaosWorkload(t, sys, seg, seed)
				checkChaosInvariants(t, sys)
				st := sys.Kernel.Stats()
				if st.DroppedDeliveries == 0 && st.DelayedDeliveries == 0 {
					t.Fatal("schedule injected no delivery faults")
				}
			})
		}
	}
}

// TestChaosFrameExhaustion: the SPCM periodically refuses grants; managers
// must fall back to local reclamation without corrupting frame state.
func TestChaosFrameExhaustion(t *testing.T) {
	for _, sched := range chaosSchedulers {
		for _, seed := range chaosSeeds {
			t.Run(fmt.Sprintf("%s/seed=%#x", sched, seed), func(t *testing.T) {
				sys, _, seg := chaosSystem(t, faultinject.Plan{
					Seed:         seed,
					ExhaustEvery: 3,
					ExhaustLen:   2,
				}, sched)
				chaosWorkload(t, sys, seg, seed)
				checkChaosInvariants(t, sys)
				if sys.Chaos.Summary().RefusedGrants == 0 {
					t.Fatal("schedule refused no grants")
				}
			})
		}
	}
}

// TestChaosManagerCrash: the victim manager is killed mid-fault-storm
// while storage errors are also flying. Afterwards every segment it
// managed must be live under the default manager, its SPCM account closed,
// its free-page segment repossessed — and every page still reachable.
func TestChaosManagerCrash(t *testing.T) {
	for _, sched := range chaosSchedulers {
		for _, seed := range chaosSeeds {
			t.Run(fmt.Sprintf("%s/seed=%#x", sched, seed), func(t *testing.T) {
				sys, g, seg := chaosSystem(t, faultinject.Plan{
					Seed:             seed,
					FetchErrorProb:   0.05,
					StoreErrorProb:   0.05,
					TransientStorage: true,
					CrashManager:     "victim-manager",
					CrashAtFault:     int64(10 + seed%23),
				}, sched)
				chaosWorkload(t, sys, seg, seed)

				if !sys.Chaos.Crashed("victim-manager") {
					t.Fatal("victim manager never crashed")
				}
				if sys.Chaos.Summary().ManagerCrashes == 0 {
					t.Fatal("crash not recorded in summary")
				}
				if sys.Kernel.Stats().Revocations == 0 {
					t.Fatal("kernel recorded no revocation")
				}
				// Every segment the victim managed fell back to the default
				// manager (SetSegmentManager fallback semantics).
				if seg.Manager() != kernel.Manager(sys.Default) {
					t.Fatalf("victim segment managed by %v, want default manager", seg.Manager())
				}
				// Its market account is closed and its free segment repossessed.
				if _, ok := sys.SPCM.Account(g); ok {
					t.Fatal("dead manager still has a market account")
				}
				if sys.SPCM.Stats().Revocations == 0 {
					t.Fatal("SPCM recorded no revocation")
				}
				checkChaosInvariants(t, sys)
				// The adopted segment is fully live: every page of the footprint
				// is reachable through the default manager, with no injection
				// interference.
				sys.Chaos.Disarm()
				for p := int64(0); p < 300; p++ {
					if err := sys.Kernel.Access(seg, p, kernel.Read); err != nil {
						t.Fatalf("page %d unreachable after adoption: %v", p, err)
					}
				}
				checkChaosInvariants(t, sys)
			})
		}
	}
}

// TestChaosDeterminism: the same seed must reproduce the same schedule —
// byte-identical event logs, identical summaries, identical final virtual
// clocks — across two independent runs of the crash-plus-storage scenario.
// Both schedulers must be deterministic: the workload has one driving
// process, so even the concurrent scheduler's deliveries form a single
// serialized chain.
func TestChaosDeterminism(t *testing.T) {
	run := func(sched string, seed uint64) ([]string, faultinject.Summary, time.Duration) {
		sys, _, seg := chaosSystem(t, faultinject.Plan{
			Seed:              seed,
			FetchErrorProb:    0.06,
			StoreErrorProb:    0.06,
			TornWriteProb:     0.25,
			TransientStorage:  true,
			DropDeliveryProb:  0.05,
			DelayDeliveryProb: 0.05,
			DeliveryDelay:     time.Millisecond,
			ExhaustEvery:      5,
			ExhaustLen:        1,
			CrashManager:      "victim-manager",
			CrashAtFault:      40,
		}, sched)
		chaosWorkload(t, sys, seg, seed)
		checkChaosInvariants(t, sys)
		return sys.Chaos.EventLog(), sys.Chaos.Summary(), sys.Clock.Now()
	}
	for _, sched := range chaosSchedulers {
		for _, seed := range chaosSeeds[:4] {
			log1, sum1, t1 := run(sched, seed)
			log2, sum2, t2 := run(sched, seed)
			if len(log1) == 0 {
				t.Fatalf("%s seed %#x: empty injection log", sched, seed)
			}
			if sum1 != sum2 {
				t.Fatalf("%s seed %#x: summaries differ:\n%v\n%v", sched, seed, sum1, sum2)
			}
			if t1 != t2 {
				t.Fatalf("%s seed %#x: final clocks differ: %v vs %v", sched, seed, t1, t2)
			}
			if strings.Join(log1, "\n") != strings.Join(log2, "\n") {
				t.Fatalf("%s seed %#x: event logs differ", sched, seed)
			}
		}
	}
}
