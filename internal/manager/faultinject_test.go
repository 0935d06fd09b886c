package manager

import (
	"errors"
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/phys"
	"epcm/internal/storage"
)

// Backing-store failures must surface as errors through the fault path —
// wrapped so callers can identify both the manager failure and the root
// cause — and must never corrupt frame accounting.
func TestFillFailurePropagatesCleanly(t *testing.T) {
	fx := newFixture(t, 16)
	failing := &storage.FailingStore{Inner: fx.store, FailReads: true, FailAfter: 0}
	fb := NewFileBacking(failing)
	fx.store.Preload("f", 4, nil)
	g := fx.newManager(t, Config{Name: "m", Backing: fb})
	seg, _ := g.CreateManagedSegment("s")
	fb.BindFile(seg, "f")

	err := fx.k.Access(seg, 0, kernel.Read)
	if !errors.Is(err, kernel.ErrManagerFailed) {
		t.Fatalf("err = %v, want ErrManagerFailed", err)
	}
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected", err)
	}
	if seg.HasPage(0) {
		t.Fatal("failed fill left a page mapped")
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
	// The system recovers when the store does.
	failing.FailReads = false
	if err := fx.k.Access(seg, 0, kernel.Read); err != nil {
		t.Fatalf("recovery access: %v", err)
	}
}

func TestWritebackFailureStopsReclaim(t *testing.T) {
	fx := newFixture(t, 16)
	failing := &storage.FailingStore{Inner: fx.store, FailWrites: true, FailAfter: 0}
	fb := NewFileBacking(failing)
	g := fx.newManager(t, Config{Name: "m", Backing: fb})
	seg, _ := g.CreateManagedSegment("s")
	fb.BindFile(seg, "f")
	for p := int64(0); p < 3; p++ {
		if err := fx.k.Access(seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 0, 3, 0, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	n, err := g.Reclaim(3, phys.AnyFrame())
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n != 0 {
		t.Fatalf("reclaimed %d despite writeback failure", n)
	}
	// Dirty pages must still be resident: their data was never persisted.
	for p := int64(0); p < 3; p++ {
		if !seg.HasPage(p) {
			t.Fatalf("dirty page %d lost after failed writeback", p)
		}
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapOutFailureLeavesSegmentIntact(t *testing.T) {
	fx := newFixture(t, 16)
	failing := &storage.FailingStore{Inner: fx.store, FailWrites: true, FailAfter: 1}
	g := fx.newManager(t, Config{Name: "m", Backing: NewSwapBacking(failing)})
	seg, _ := g.CreateManagedSegment("s")
	for p := int64(0); p < 4; p++ {
		if err := fx.k.Access(seg, p, kernel.Write); err != nil {
			t.Fatal(err)
		}
	}
	_, err := g.SwapOut(seg)
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	// Partial progress is fine; accounting must be consistent and the
	// unswapped dirty pages still resident.
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
	if seg.PageCount() == 0 {
		t.Fatal("all pages gone despite failed swap-out")
	}
}
