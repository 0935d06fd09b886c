package apps

import (
	"testing"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/storage"
	"epcm/internal/ultrix"
)

type fixture struct {
	clock *sim.Clock
	k     *kernel.Kernel
	store *storage.Store
	g     *manager.Generic
	seg   *kernel.Segment
	ckpt  *Checkpointer
	wb    *WriteBarrier
}

func newFixture(t *testing.T, pages int64) *fixture {
	t.Helper()
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 4 << 20, StoreData: true})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	store := storage.NewStore(&clock, storage.Prefilled(), 4096)
	pool, err := manager.NewFixedPool(k, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{clock: &clock, k: k, store: store}
	fx.ckpt = NewCheckpointer(k, store)
	g, err := manager.NewGeneric(k, manager.Config{
		Name:       "app",
		Source:     pool,
		Protection: fx.ckpt.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := g.CreateManagedSegment("heap")
	if err != nil {
		t.Fatal(err)
	}
	fx.g, fx.seg = g, seg
	fx.ckpt.Attach(g, seg)
	for p := int64(0); p < pages; p++ {
		if err := k.Access(seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
		seg.FrameAt(p).Data()[0] = byte(p)
	}
	return fx
}

// The defining property of concurrent checkpointing: the image is the
// state at Begin, even though the application mutates pages while the
// checkpoint is in progress.
func TestCheckpointConsistency(t *testing.T) {
	fx := newFixture(t, 8)
	if err := fx.ckpt.Begin(); err != nil {
		t.Fatal(err)
	}
	// The application mutates pages 2 and 5 mid-checkpoint. Each first
	// write faults; the old contents are saved before the write proceeds.
	for _, p := range []int64{2, 5} {
		if err := fx.k.Access(fx.seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
		fx.seg.FrameAt(p).Data()[0] = 0xFF
	}
	if err := fx.ckpt.Finish(); err != nil {
		t.Fatal(err)
	}
	img, err := fx.ckpt.Image(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 8; p++ {
		if img[p][0] != byte(p) {
			t.Fatalf("image page %d = %#x, want Begin-time value %#x", p, img[p][0], byte(p))
		}
	}
	// Live data reflects the mutations.
	if fx.seg.FrameAt(2).Data()[0] != 0xFF {
		t.Fatal("application write lost")
	}
	if fx.ckpt.FaultSaves() != 2 {
		t.Fatalf("fault saves = %d, want 2", fx.ckpt.FaultSaves())
	}
	if fx.ckpt.DrainSaves() != 6 {
		t.Fatalf("drain saves = %d, want 6", fx.ckpt.DrainSaves())
	}
}

func TestCheckpointSecondWriteIsFree(t *testing.T) {
	fx := newFixture(t, 4)
	if err := fx.ckpt.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := fx.k.Access(fx.seg, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	faults := fx.k.Stats().ProtFaults
	if err := fx.k.Access(fx.seg, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	if fx.k.Stats().ProtFaults != faults {
		t.Fatal("second write to a saved page faulted again")
	}
	if err := fx.ckpt.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointEpochsAreSeparate(t *testing.T) {
	fx := newFixture(t, 2)
	if err := fx.ckpt.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := fx.ckpt.Finish(); err != nil {
		t.Fatal(err)
	}
	// Mutate, then take a second checkpoint.
	if err := fx.k.Access(fx.seg, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	fx.seg.FrameAt(0).Data()[0] = 0xEE
	if err := fx.ckpt.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := fx.ckpt.Finish(); err != nil {
		t.Fatal(err)
	}
	img1, err := fx.ckpt.Image(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := fx.ckpt.Image(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if img1[0][0] != 0 || img2[0][0] != 0xEE {
		t.Fatalf("epochs mixed: %#x / %#x", img1[0][0], img2[0][0])
	}
}

func TestCheckpointBeginWhileActiveFails(t *testing.T) {
	fx := newFixture(t, 2)
	if err := fx.ckpt.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := fx.ckpt.Begin(); err == nil {
		t.Fatal("nested Begin accepted")
	}
}

func TestWriteBarrierRecordsExactlyWrittenPages(t *testing.T) {
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 4 << 20, StoreData: true})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	pool, err := manager.NewFixedPool(k, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wb *WriteBarrier
	g, err := manager.NewGeneric(k, manager.Config{
		Name:   "gc",
		Source: pool,
		Protection: func(f kernel.Fault) error {
			return wb.Hook()(f)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := g.CreateManagedSegment("heap")
	for p := int64(0); p < 16; p++ {
		if err := k.Access(seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
	}
	wb = NewWriteBarrier(k, seg)
	if err := wb.Begin(); err != nil {
		t.Fatal(err)
	}
	// Mutator writes pages 3, 7, 7, 11; reads page 5.
	for _, p := range []int64{3, 7, 7, 11} {
		if err := k.Access(seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Access(seg, 5, kernel.Read); err != nil {
		t.Fatal(err)
	}
	written := wb.End() // ascending
	want := []int64{3, 7, 11}
	if len(written) != len(want) {
		t.Fatalf("written = %v, want %v", written, want)
	}
	for i := range want {
		if written[i] != want[i] {
			t.Fatalf("written = %v, want %v", written, want)
		}
	}
	if wb.Faults() != 3 {
		t.Fatalf("barrier faults = %d, want 3 (duplicates free)", wb.Faults())
	}
}

// §3.1's comparison: the per-trapped-write cost of the barrier is cheaper
// on V++ (manager protection fault) than the Ultrix signal+mprotect path.
func TestBarrierCostVppVsUltrix(t *testing.T) {
	// V++: one barrier fault = trap + upcall + ModifyPageFlags + resume.
	fx := newFixture(t, 4)
	wb := NewWriteBarrier(fx.k, fx.seg)
	// Rebind the manager hook to the barrier for this measurement: Attach a
	// fresh fixture whose Protection hook routes to wb.
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 4 << 20, StoreData: true})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	pool, err := manager.NewFixedPool(k, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := manager.NewGeneric(k, manager.Config{
		Name:   "gc",
		Source: pool,
		Protection: func(f kernel.Fault) error {
			return wb.Hook()(f)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := g.CreateManagedSegment("heap")
	if err := k.Access(seg, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	wb = NewWriteBarrier(k, seg)
	if err := wb.Begin(); err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	if err := k.Access(seg, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	vppCost := clock.Now() - start

	// Ultrix: signal + mprotect handler path is a fixed 152 µs.
	var uclock sim.Clock
	ustore := storage.NewStore(&uclock, storage.Prefilled(), 4096)
	us := ultrix.New(&uclock, sim.DECstation5000(), ustore, 256)
	region := us.NewRegion("heap")
	region.Touch(0, true)
	region.Mprotect(0, true)
	ustart := uclock.Now()
	region.Touch(0, true)
	ultrixCost := uclock.Now() - ustart

	if ultrixCost != 152*time.Microsecond {
		t.Fatalf("ultrix barrier cost %v, want 152µs", ultrixCost)
	}
	if vppCost >= ultrixCost {
		t.Fatalf("V++ barrier (%v) should beat Ultrix (%v)", vppCost, ultrixCost)
	}
}

func TestCheckpointRestoreRecoversState(t *testing.T) {
	fx := newFixture(t, 8)
	if err := fx.ckpt.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := fx.ckpt.Finish(); err != nil {
		t.Fatal(err)
	}
	// "Crash": scribble over everything.
	for p := int64(0); p < 8; p++ {
		if err := fx.k.Access(fx.seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
		fx.seg.FrameAt(p).Data()[0] = 0xDE
	}
	if err := fx.ckpt.Restore(1, 8); err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 8; p++ {
		if got := fx.seg.FrameAt(p).Data()[0]; got != byte(p) {
			t.Fatalf("page %d restored to %#x, want %#x", p, got, byte(p))
		}
	}
}

func TestRestoreDuringActiveCheckpointFails(t *testing.T) {
	fx := newFixture(t, 4)
	if err := fx.ckpt.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := fx.ckpt.Restore(1, 4); err == nil {
		t.Fatal("restore during active checkpoint succeeded")
	}
}

func TestRestoreRebuildsEvictedPages(t *testing.T) {
	fx := newFixture(t, 16)
	if err := fx.ckpt.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := fx.ckpt.Finish(); err != nil {
		t.Fatal(err)
	}
	// Evict some pages entirely, then restore: the missing pages must be
	// re-materialized with checkpoint contents.
	if err := fx.k.ModifyPageFlags(kernel.AppCred, fx.seg, 0, 4, 0, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.g.Reclaim(3, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	if err := fx.ckpt.Restore(1, 8); err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 8; p++ {
		if !fx.seg.HasPage(p) {
			t.Fatalf("page %d missing after restore", p)
		}
		if got := fx.seg.FrameAt(p).Data()[0]; got != byte(p) {
			t.Fatalf("page %d = %#x", p, got)
		}
	}
}
