package core

import (
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/manager"
)

// superCounts drives the same deterministic superpage workload under the
// given scheduler and reports every promotion-plane counter. The counts must
// be identical in every mode: the superpage plane rides the same determinism
// contract the golden output does.
type superCounts struct {
	promotions, demotions, superOps int64
	mgr                             manager.SuperStats
	liveBefore                      int
}

func runSuperWorkload(t *testing.T, scheduler string) superCounts {
	t.Helper()
	s, err := Boot(Config{
		MemoryBytes: 8 << 20,
		Scheduler:   scheduler,
		Superpages:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	g, _, err := s.NewAppManager(manager.Config{Name: "super-app", ExtentOrder: 4}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := g.CreateManagedSegment("grid")
	if err != nil {
		t.Fatal(err)
	}
	// 16 extents faulted in sequentially, then half the range re-touched
	// (pure hits: the pages are resident and span-translated).
	for p := int64(0); p < 256; p++ {
		if err := s.Kernel.Access(seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
	}
	for p := int64(0); p < 128; p++ {
		if err := s.Kernel.Access(seg, p, kernel.Read); err != nil {
			t.Fatal(err)
		}
	}
	c := superCounts{liveBefore: seg.ExtentCount(), mgr: g.SuperStats()}
	// Deleting the segment demotes every live extent through the kernel's
	// drop-all hook and drains the manager's density tracker.
	if err := s.Kernel.DeleteSegment(kernel.AppCred, seg); err != nil {
		t.Fatal(err)
	}
	if err := s.Kernel.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
	st := s.Kernel.Stats()
	c.promotions, c.demotions, c.superOps = st.ExtentPromotions, st.ExtentDemotions, st.SuperpageOps
	return c
}

// TestSuperpageDeterminismAcrossModes is the promotion/demotion golden
// test: the serial and the concurrent scheduler must produce byte-identical
// promotion-plane counts for the same workload. (Nothing in a core.System
// builds a sim.Env, so the time engine is not a mode here.)
func TestSuperpageDeterminismAcrossModes(t *testing.T) {
	t.Parallel()
	schedulers := []string{"serial", "concurrent"}
	var ref superCounts
	for i, sched := range schedulers {
		got := runSuperWorkload(t, sched)
		if got.liveBefore != 16 {
			t.Errorf("%s: %d live extents after fill, want 16", sched, got.liveBefore)
		}
		if got.mgr.Promotions != 16 || got.mgr.Denied != 0 || got.mgr.ExtentFills != 16 {
			t.Errorf("%s: manager stats %+v, want 16 promotions, 16 fills, 0 denied", sched, got.mgr)
		}
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("%s diverges from %s: %+v vs %+v", sched, schedulers[0], got, ref)
		}
	}
}

// With the system's superpage plane on but ExtentOrder left zero, the
// manager never promotes; with ExtentOrder set but the plane off, the same.
// Either half of the gate alone must leave the plane cold.
func TestSuperpageGateHalves(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		system bool
		order  int
	}{
		{"switch on, order zero", true, 0},
		{"switch off, order set", false, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Boot(Config{MemoryBytes: 8 << 20, Superpages: tc.system})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown()
			g, _, err := s.NewAppManager(manager.Config{Name: "cold", ExtentOrder: tc.order}, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := g.CreateManagedSegment("grid")
			if err != nil {
				t.Fatal(err)
			}
			for p := int64(0); p < 64; p++ {
				if err := s.Kernel.Access(seg, p, kernel.Write); err != nil {
					t.Fatal(err)
				}
			}
			if n := seg.ExtentCount(); n != 0 {
				t.Fatalf("%d extents promoted with the plane half-enabled", n)
			}
			if st := g.SuperStats(); st != (manager.SuperStats{}) {
				t.Fatalf("manager promotion plane ran: %+v", st)
			}
		})
	}
}
