package experiments

import (
	"strings"
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/phys"
	"epcm/internal/sim"
)

// The superpage arm must build the same working set as the base arm with
// far fewer faults: one fault per extent fills 2^order pages through a
// contiguous grant and installs a single translation entry, so hit
// fidelity stays 1.0 while TLB reach approaches the extent size. The base
// arm is the existing one-fault-per-page path and must be untouched.
func TestPlaneThroughputSuperpageArm(t *testing.T) {
	t.Parallel()
	const fpm = 1024 // multiple of the extent size, so no partial tail
	for _, sched := range []string{"serial", "concurrent"} {
		base, err := PlaneThroughput(PlaneOptions{Scheduler: sched, Managers: 2, FaultsPerManager: fpm})
		if err != nil {
			t.Fatalf("%s base: %v", sched, err)
		}
		super, err := PlaneThroughput(PlaneOptions{Scheduler: sched, Managers: 2, FaultsPerManager: fpm, ExtentOrder: superExtentOrder})
		if err != nil {
			t.Fatalf("%s super: %v", sched, err)
		}
		if base.Faults != 2*fpm {
			t.Errorf("%s base arm: got %d faults, want %d", sched, base.Faults, 2*fpm)
		}
		span := int64(1) << superExtentOrder
		if want := 2 * fpm / span; super.Faults != want {
			t.Errorf("%s super arm: got %d faults, want %d (one per %d-page extent)", sched, super.Faults, want, span)
		}
		if super.HitFidelity != 1 || base.HitFidelity != 1 {
			t.Errorf("%s: hit fidelity base %.3f super %.3f, want 1.0", sched, base.HitFidelity, super.HitFidelity)
		}
		if super.TLBReachPages != float64(span) {
			t.Errorf("%s super arm: TLB reach %.2f pages/entry, want %d (every extent live)", sched, super.TLBReachPages, span)
		}
		if base.TLBReachPages != 1 {
			t.Errorf("%s base arm: TLB reach %.2f pages/entry, want 1", sched, base.TLBReachPages)
		}
		// Two promotions per extent: the SPCM grant into the manager's
		// free segment is itself an aligned extent move (transient, demoted
		// when the pages migrate out to the application segment), then the
		// fill into the application segment promotes the live extent.
		if want := 2 * (2 * fpm / span); super.ExtentPromotions != want {
			t.Errorf("%s super arm: %d promotions, want %d", sched, super.ExtentPromotions, want)
		}
	}
	// The superpage arm configured its own kernel and nothing else: a
	// default kernel booted now has the plane off, so the process-wide shim
	// was never touched.
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 1 << 20})
	if kernel.New(mem, new(sim.Clock), sim.DECstation5000(), kernel.Config{}).Superpages() {
		t.Fatal("PlaneThroughput turned the process-wide superpage shim on")
	}
}

// The super sweep end to end: both arms under both schedulers at both
// manager counts, every gate met on model numbers.
func TestSuperpageSweepSmoke(t *testing.T) {
	t.Parallel()
	rep, err := superSweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("super sweep gate failed:\n%s", rep.Output)
	}
	out := string(rep.Output)
	for _, arm := range []string{"\nbase ", "\nsuper "} {
		if n := strings.Count(out, arm); n != 4 {
			t.Errorf("%d %q rows, want 4 (2 schedulers x 2 manager counts):\n%s", n, strings.TrimSpace(arm), out)
		}
	}
}
