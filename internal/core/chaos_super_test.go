package core

// Superpage chaos arm: the victim manager runs with the extent plane on
// (ExtentOrder 4 on a system booted with Superpages) while the plan kills it
// mid-fault-storm with storage errors flying. Crash recovery hands its
// segments to the default manager, whose promotion state starts cold — so
// adoption must demote every live extent through dropAllExtentsLocked, and
// all the usual conservation invariants must survive schedules where an
// extent is half-promoted (grant landed, fill interrupted) at crash time.

import (
	"fmt"
	"testing"

	"epcm/internal/faultinject"
	"epcm/internal/kernel"
	"epcm/internal/manager"
)

// chaosSuperSystem is chaosSystem with the superpage plane armed on the
// system and on the victim manager.
func chaosSuperSystem(t testing.TB, plan faultinject.Plan, sched string) (*System, *manager.Generic, *kernel.Segment) {
	t.Helper()
	sys, err := Boot(Config{
		MemoryBytes: 1 << 20,
		StoreData:   true,
		FaultPlan:   &plan,
		Scheduler:   sched,
		Superpages:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := sys.NewAppManager(manager.Config{
		Name:        "victim-manager",
		Backing:     manager.NewSwapBacking(sys.Store),
		MaxRetries:  3,
		ExtentOrder: 4,
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

// TestChaosSuperpageCrashStorm: 16 seeds x 2 schedulers of the manager-crash
// scenario with extents live. The footprint (600 pages) exceeds physical
// memory (256 frames), so by crash time the extent plane has promoted,
// demoted under reclaim pressure, and likely has a fill in flight. After
// adoption the segment must carry zero extents (the default manager runs
// ExtentOrder 0), every page must be reachable per-page, and frame/market
// conservation must hold.
func TestChaosSuperpageCrashStorm(t *testing.T) {
	t.Parallel()
	for _, sched := range chaosSchedulers {
		for _, seed := range chaosSeeds {
			t.Run(fmt.Sprintf("%s/seed=%#x", sched, seed), func(t *testing.T) {
				sys, g, seg := chaosSuperSystem(t, faultinject.Plan{
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
				if seg.Manager() != kernel.Manager(sys.Default) {
					t.Fatalf("victim segment managed by %v, want default manager", seg.Manager())
				}
				// The extent plane actually ran before the crash: whole-extent
				// fills promote from the very first faults.
				st := sys.Kernel.Stats()
				if st.ExtentPromotions == 0 {
					t.Fatal("no extents promoted before the crash")
				}
				// Adoption demotes everything: the default manager's promotion
				// state starts cold, so the adopted segment carries no extents.
				// (Global promotions/demotions need not balance at quiesce: a
				// freshly granted free-segment extent is legitimately live
				// until its first page is consumed.)
				if n := seg.ExtentCount(); n != 0 {
					t.Fatalf("adopted segment still carries %d extents", n)
				}
				if st.ExtentDemotions == 0 {
					t.Fatal("no extents demoted despite crash adoption")
				}
				if st.ExtentDemotions > st.ExtentPromotions {
					t.Fatalf("more demotions than promotions: %d vs %d",
						st.ExtentDemotions, st.ExtentPromotions)
				}
				if _, ok := sys.SPCM.Account(g); ok {
					t.Fatal("dead manager still has a market account")
				}
				checkChaosInvariants(t, sys)
				if err := sys.Kernel.CheckFrameConservation(); err != nil {
					t.Fatal(err)
				}
				// The adopted segment serves per-page faults cleanly with no
				// injection interference.
				sys.Chaos.Disarm()
				for p := int64(0); p < 300; p++ {
					if err := sys.Kernel.Access(seg, p, kernel.Read); err != nil {
						t.Fatalf("page %d unreachable after adoption: %v", p, err)
					}
				}
				if n := seg.ExtentCount(); n != 0 {
					t.Fatalf("default manager promoted %d extents post-adoption", n)
				}
				checkChaosInvariants(t, sys)
			})
		}
	}
}
