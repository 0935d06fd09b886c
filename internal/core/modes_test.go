package core

// Modes are values of the system they configure: booting one system in a
// mode must not change what another system in the same process does,
// whether the other is booted later or is running beside it.

import (
	"sync"
	"testing"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
)

// modeOutcome is what one driveModes run leaves behind.
type modeOutcome struct {
	stats kernel.Stats
	super manager.SuperStats
	clock time.Duration
}

// driveModes boots cfg, gives it one app manager asking for order-4 extents
// over a swap store, first-touches 768 pages of a 512-frame machine (so
// reclaim runs) and re-reads the first 256. Errors are reported with
// t.Error: the side-by-side test calls this off the test goroutine.
func driveModes(t *testing.T, cfg Config) (out modeOutcome) {
	cfg.MemoryBytes = 2 << 20
	sys, err := Boot(cfg)
	if err != nil {
		t.Error(err)
		return out
	}
	defer sys.Shutdown()
	g, _, err := sys.NewAppManager(manager.Config{
		Name:        "modes-app",
		Backing:     manager.NewSwapBacking(sys.Store),
		ExtentOrder: 4,
	}, 1e6)
	if err != nil {
		t.Error(err)
		return out
	}
	seg, err := g.CreateManagedSegment("modes-data")
	if err != nil {
		t.Error(err)
		return out
	}
	for p := int64(0); p < 768+256; p++ {
		page, access := p, kernel.Write
		if p >= 768 {
			page, access = p-768, kernel.Read
		}
		if err := sys.Kernel.Access(seg, page, access); err != nil {
			t.Errorf("%+v: page %d: %v", cfg, page, err)
			return out
		}
	}
	if err := sys.Kernel.CheckFrameConservation(); err != nil {
		t.Errorf("%+v: %v", cfg, err)
	}
	if err := sys.SPCM.CheckInvariants(); err != nil {
		t.Errorf("%+v: %v", cfg, err)
	}
	if got, want := sys.Kernel.Scheduler().Concurrent(), cfg.Scheduler == "concurrent"; got != want {
		t.Errorf("%+v: concurrent scheduler = %v", cfg, got)
	}
	if app, def := g.Policy().PolicyName(), sys.Default.Policy().PolicyName(); cfg.ReclaimPolicy == "" && (app != "clock" || def != "clock") {
		t.Errorf("%+v: app manager runs policy %q and the default manager %q, want the clock", cfg, app, def)
	}
	return modeOutcome{stats: sys.Kernel.Stats(), super: g.SuperStats(), clock: sys.Clock.Now()}
}

// requireBasePages fails unless a run never touched the extent plane.
func requireBasePages(t *testing.T, what string, o modeOutcome) {
	t.Helper()
	if o.stats.ExtentPromotions != 0 || o.stats.SuperpageOps != 0 || o.super != (manager.SuperStats{}) {
		t.Errorf("%s ran the extent plane: %d promotions, %d superpage ops, manager %+v",
			what, o.stats.ExtentPromotions, o.stats.SuperpageOps, o.super)
	}
}

// TestModesDoNotLeakAcrossBoots: a system booted with Superpages, the
// concurrent scheduler and an "lru" default is shut down, and the default
// system booted after it — no cleanup in between — must be what it would
// have been alone: serial, on base pages, its managers on the clock, its
// clock bit-equal.
func TestModesDoNotLeakAcrossBoots(t *testing.T) {
	t.Parallel()
	alone := driveModes(t, Config{})
	requireBasePages(t, "the default system", alone)

	first := driveModes(t, Config{Superpages: true, Scheduler: "concurrent", ReclaimPolicy: "lru"})
	if first.stats.ExtentPromotions == 0 || first.stats.SuperpageOps == 0 {
		t.Fatalf("the superpage system never promoted: %+v", first.stats)
	}
	after := driveModes(t, Config{})
	requireBasePages(t, "the default system booted after a superpage system", after)
	if after != alone {
		t.Errorf("the default system changed with what was booted before it:\n after %+v\n alone %+v", after, alone)
	}
}

// TestModesSideBySide is ROADMAP item 1's acceptance: a serial system on
// the paper's hash table and a concurrent one on the CAS table with the
// superpage plane on, booted in one process and driven at the same time,
// one goroutine each, with nothing ordering the two — so under -race any
// process state they shared would be reported. Each must end conserved, and
// the serial one's counters and clock must be bit-equal to a solo run.
func TestModesSideBySide(t *testing.T) {
	t.Parallel()
	solo := driveModes(t, Config{})

	var serial, super modeOutcome
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		serial = driveModes(t, Config{Scheduler: "serial"})
	}()
	go func() {
		defer wg.Done()
		super = driveModes(t, Config{Scheduler: "concurrent", Superpages: true})
	}()
	wg.Wait()

	requireBasePages(t, "the serial system beside a superpage system", serial)
	if serial != solo {
		t.Errorf("the serial system changed with what ran beside it:\n beside %+v\n solo   %+v", serial, solo)
	}
	if super.stats.ExtentPromotions == 0 || super.super.ExtentFills == 0 {
		t.Errorf("the superpage system never filled an extent: %+v, manager %+v", super.stats, super.super)
	}
}
