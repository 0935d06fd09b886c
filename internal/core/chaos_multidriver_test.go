package core

// Multi-driver chaos arm: a fault storm of several drivers per manager (the
// shape where faults wait for the manager's mutex) with the victim manager
// killed mid-storm — so with high likelihood the crash lands while other
// drivers' faults wait behind the one being handled. The contract under any
// such schedule: no waiting fault is lost (every page still reachable after
// adoption) and none is resolved twice (frame conservation and the market
// invariants hold — a second resolution would either leak a frame or trip
// ErrPageBusy into an intolerable error).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"epcm/internal/faultinject"
	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
)

// slowSwapBacking delegates to SwapBacking with a stall on Fill, parking
// one driver inside the manager, holding its mutex, so concurrent drivers
// wait behind it. Writeback is undelayed: reclamation pressure
// should come from the footprint, not artificial writeback latency.
type slowSwapBacking struct {
	*manager.SwapBacking
	stall time.Duration
}

func (b slowSwapBacking) Fill(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	time.Sleep(b.stall)
	return b.SwapBacking.Fill(seg, page, frame)
}

// TestChaosMultiDriverCrashStorm: 8 seeds of a 4-driver storm over a footprint
// (600 pages) exceeding physical memory (256 frames), with storage errors
// flying and the victim crashed after ~100 deliveries. The stalled fill
// makes the drivers pile up on the victim's mutex so the crash meets
// waiting deliveries. Afterwards adoption must be complete, conservation exact, and
// every page reachable.
func TestChaosMultiDriverCrashStorm(t *testing.T) {
	const (
		drivers        = 4
		pagesPerDriver = 150
		footprint      = int64(drivers) * pagesPerDriver
	)
	for _, seed := range chaosSeeds[:8] {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			plan := faultinject.Plan{
				Seed:             seed,
				FetchErrorProb:   0.03,
				StoreErrorProb:   0.03,
				TransientStorage: true,
				CrashManager:     "victim-manager",
				CrashAtFault:     int64(100 + seed%37),
			}
			sys, err := Boot(Config{MemoryBytes: 1 << 20, StoreData: true, FaultPlan: &plan, Scheduler: "concurrent"})
			if err != nil {
				t.Fatal(err)
			}
			g, _, err := sys.NewAppManager(manager.Config{
				Name:       "victim-manager",
				Backing:    slowSwapBacking{manager.NewSwapBacking(sys.Store), 50 * time.Microsecond},
				MaxRetries: 3,
			}, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := g.CreateManagedSegment("victim-data")
			if err != nil {
				t.Fatal(err)
			}

			// The storm: each driver first-touches its own page range, then
			// a seeded mixed read/write pass over it — refaults under
			// reclaim pressure, writebacks, and re-fetches, all while the
			// interceptor counts down to the crash.
			var wg sync.WaitGroup
			for d := 0; d < drivers; d++ {
				wg.Add(1)
				go func(d int) {
					defer wg.Done()
					lo := int64(d) * pagesPerDriver
					r := sim.NewRNG(seed + uint64(d)*0x9E37)
					for i := 0; i < 3*pagesPerDriver; i++ {
						var err error
						if i < pagesPerDriver {
							err = sys.Kernel.Access(seg, lo+int64(i), kernel.Write)
						} else if i%2 == 0 {
							err = sys.Kernel.Access(seg, lo+r.Int63n(pagesPerDriver), kernel.Read)
						} else {
							err = sys.Kernel.Access(seg, lo+r.Int63n(pagesPerDriver), kernel.Write)
						}
						if err != nil && !tolerable(err) {
							t.Errorf("driver %d op %d: intolerable error under chaos: %v", d, i, err)
							return
						}
					}
				}(d)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}

			if !sys.Chaos.Crashed("victim-manager") {
				t.Fatal("victim manager never crashed")
			}
			if seg.Manager() != kernel.Manager(sys.Default) {
				t.Fatalf("victim segment managed by %v, want default manager", seg.Manager())
			}
			if _, ok := sys.SPCM.Account(g); ok {
				t.Fatal("dead manager still has a market account")
			}
			checkChaosInvariants(t, sys)
			// Double-resolution of any waiting fault would have migrated two
			// frames into one page or freed one frame twice; conservation
			// catches both.
			if err := sys.Kernel.CheckFrameConservation(); err != nil {
				t.Fatal(err)
			}
			// No waiting fault was lost: every page of the footprint is
			// reachable through the adopter with injection off.
			sys.Chaos.Disarm()
			for p := int64(0); p < footprint; p++ {
				if err := sys.Kernel.Access(seg, p, kernel.Read); err != nil {
					t.Fatalf("page %d unreachable after adoption: %v", p, err)
				}
			}
			checkChaosInvariants(t, sys)
		})
	}
}
