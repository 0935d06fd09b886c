package spcm

import (
	"sync"
	"testing"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
)

// TestChaosEnforceVsReturnFrames races the sharded ledger: four solvent
// managers request and return frames from their own goroutines while the
// control goroutine repeatedly runs Enforce against two idle, insolvent
// debtors. Enforce walks every account (settling each under its own
// mutex), reclaims from the debtors, and pushes their frames back onto the
// striped free list — all while the drivers are popping and pushing the
// same list and settling their own accounts. The run must be data-race
// free (scripts/check.sh runs the Chaos suite under -race) and leave the
// market books balanced.
//
// Each Generic manager stays single-goroutine — its own driver, or the
// control goroutine for the idle debtors — which is the concurrency
// contract the delivery plane provides in real runs; what is exercised
// here is the SPCM's shared state: account mutexes, the striped free
// list, demand counters and statistics. The kernel under it runs the
// concurrent scheduler, the one that locks segments for callers on several
// goroutines.
func TestChaosEnforceVsReturnFrames(t *testing.T) {
	policy := DefaultPolicy()
	policy.FreeWhenUncontended = false // rent always charges: insolvency happens
	fx := newFixtureOn(t, policy, kernel.Config{Concurrent: true})

	const drivers = 4
	var mgrs [drivers]*managerHandle
	for i := 0; i < drivers; i++ {
		g, _ := fx.newClient(t, "driver", 1e9)
		mgrs[i] = &managerHandle{g: g}
	}

	// Two debtors grab frames, then sit idle while rent drives their
	// balances negative; only Enforce touches their managers afterwards.
	for _, name := range []string{"debtor-a", "debtor-b"} {
		g, _ := fx.newClient(t, name, 2)
		if _, err := fx.s.RequestFrames(g, 64, phys.AnyFrame()); err != nil {
			t.Fatal(err)
		}
	}
	fx.clock.Advance(30 * time.Second)

	var wg sync.WaitGroup
	for i := 0; i < drivers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := sim.NewRNG(0xACE_0000 + uint64(i))
			h := mgrs[i]
			for step := 0; step < 300; step++ {
				if rng.Intn(2) == 0 {
					if _, err := fx.s.RequestFrames(h.g, rng.Intn(8)+1, phys.AnyFrame()); err != nil {
						h.err = err
						return
					}
				} else {
					if _, err := h.g.ReturnFreeFrames(rng.Intn(8)); err != nil {
						h.err = err
						return
					}
				}
				fx.clock.Advance(time.Duration(rng.Intn(40)) * time.Millisecond)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for step := 0; step < 100; step++ {
			fx.clock.Advance(500 * time.Millisecond)
			// Partial reclaim errors would be tolerable here; a data race
			// is what the run exists to rule out. But with idle debtors no
			// reclaim can fail, so any error is worth failing on.
			if _, err := fx.s.Enforce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for _, h := range mgrs {
		if h.err != nil {
			t.Fatal(h.err)
		}
	}

	if err := fx.s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// managerHandle pairs a driver's manager with its terminal error, written
// only by that driver's goroutine before wg.Done and read after wg.Wait.
type managerHandle struct {
	g   *manager.Generic
	err error
}
