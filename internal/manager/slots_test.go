package manager

import (
	"errors"
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/phys"
)

// TestFailedReservationHandsSlotsBack is checkFailedGrantReleasesSlots
// (internal/spcm) for the entry points that reserve slots without an SPCM:
// a foreign frame is parked on a slot the operation's reservation will pick,
// so its migration is refused with ErrPageBusy; the reservation must come
// back whole — the ledger conserved, and the retried operation landing on
// exactly the slot numbers the failed one reserved.
func TestFailedReservationHandsSlotsBack(t *testing.T) {
	resident := func(t *testing.T, fx *fixture) (*Generic, *kernel.Segment) {
		g := fx.newManager(t, Config{Name: "m"})
		seg, err := g.CreateManagedSegment("s")
		if err != nil {
			t.Fatal(err)
		}
		for p := int64(0); p < 2; p++ {
			if err := fx.k.Access(seg, p, kernel.Write); err != nil {
				t.Fatal(err)
			}
		}
		return g, seg
	}
	rows := []struct {
		name    string
		n       int // slots the operation reserves
		blocked int // index, in reservation order, of the occupied one
		arrive  int // frames a failed attempt still lists
		setup   func(t *testing.T, fx *fixture) (*Generic, func() error)
	}{
		{"FixedPool.RequestFrames", 3, 1, 1, func(t *testing.T, fx *fixture) (*Generic, func() error) {
			g := fx.newManager(t, Config{Name: "m"})
			return g, func() error {
				_, err := fx.pool.RequestFrames(g, 3-g.FreeFrames(), phys.AnyFrame())
				return err
			}
		}},
		{"EvictPage", 1, 0, 0, func(t *testing.T, fx *fixture) (*Generic, func() error) {
			g, seg := resident(t, fx)
			return g, func() error { return g.EvictPage(seg, 0) }
		}},
		{"SwapOut", 1, 0, 0, func(t *testing.T, fx *fixture) (*Generic, func() error) {
			g, seg := resident(t, fx)
			return g, func() error {
				_, err := g.SwapOut(seg)
				return err
			}
		}},
		{"MultiPool.stealInto", 2, 1, 0, func(t *testing.T, fx *fixture) (*Generic, func() error) {
			mp := NewMultiPool(fx.k, "db")
			donor, err := mp.AddPool("donor", Config{Source: fx.pool})
			if err != nil {
				t.Fatal(err)
			}
			g, err := mp.AddPool("taker", Config{Source: fx.pool})
			if err != nil {
				t.Fatal(err)
			}
			fx.mgrs = append(fx.mgrs, donor, g)
			seg, err := mp.CreateManagedSegment("s", "donor")
			if err != nil {
				t.Fatal(err)
			}
			for p := int64(0); p < 2; p++ {
				if err := fx.k.Access(seg, p, kernel.Write); err != nil {
					t.Fatal(err)
				}
			}
			return g, func() error {
				_, err := mp.stealInto(g, 2, phys.AnyFrame())
				return err
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fx := newFixture(t, 32)
			g, op := row.setup(t, fx)
			want := NextSlots(g, row.n)
			free := g.FreeFrames()
			// Park a pool frame on the slot, behind the manager's back.
			foreign, slot := fx.pool.Donor.Pages()[0], want[row.blocked]
			if err := fx.k.MigratePages(kernel.SystemCred, fx.pool.Donor, g.free, foreign, slot, 1, 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := op(); !errors.Is(err, kernel.ErrPageBusy) {
				t.Fatalf("onto an occupied slot: %v, want ErrPageBusy", err)
			}
			if got := g.FreeFrames(); got != free+row.arrive {
				t.Fatalf("after the refused migration: %d free frames, want %d", got, free+row.arrive)
			}
			if err := fx.k.MigratePages(kernel.SystemCred, g.free, fx.pool.Donor, slot, foreign, 1, 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := g.CheckSlots(); err != nil {
				t.Fatalf("after the refused migration: %v", err)
			}
			if err := op(); err != nil {
				t.Fatalf("retried: %v", err)
			}
			for _, s := range want {
				if !g.free.HasPage(s) {
					t.Fatalf("retried operation left slot %d empty (free segment holds %v, reserved %v): the reservation leaked",
						s, g.free.Pages(), want)
				}
			}
			if err := fx.k.CheckFrameConservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
