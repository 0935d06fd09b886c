package kernel

import (
	"errors"
	"testing"

	"epcm/internal/sim"
)

// Binding chains: an address space bound to a shared-library segment that
// is itself bound to a file segment — references resolve through both hops.
func TestBindingChainResolution(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 16, DeliverSameProcess)
	file, _ := k.CreateSegment("file", 1)
	lib, _ := k.CreateSegment("lib", 1)
	space, _ := k.CreateSegment("space", 1)
	for _, s := range []*Segment{file, lib, space} {
		k.SetSegmentManager(s, m)
	}
	if err := k.BindRegion(AppCred, lib, 0, 8, file, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := k.BindRegion(AppCred, space, 100, 8, lib, 0, false); err != nil {
		t.Fatal(err)
	}
	// A reference through the space lands in the *file* segment.
	if err := k.Access(space, 103, Read); err != nil {
		t.Fatal(err)
	}
	if !file.HasPage(3) {
		t.Fatal("chain resolution did not reach the file segment")
	}
	if lib.PageCount() != 0 || space.PageCount() != 0 {
		t.Fatal("intermediate segments materialized pages")
	}
}

// A COW binding midway through a chain: the write materializes in the
// first COW-crossing segment, not deeper or shallower.
func TestBindingChainCOWMaterializesAtFirstCOW(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 16, DeliverSameProcess)
	file, _ := k.CreateSegment("file", 1)
	snapshot, _ := k.CreateSegment("snapshot", 1)
	space, _ := k.CreateSegment("space", 1)
	for _, s := range []*Segment{file, snapshot, space} {
		k.SetSegmentManager(s, m)
	}
	// snapshot is a COW view of file; space maps the snapshot normally.
	if err := k.BindRegion(AppCred, snapshot, 0, 4, file, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := k.BindRegion(AppCred, space, 0, 4, snapshot, 0, false); err != nil {
		t.Fatal(err)
	}
	// Materialize the file's page with known data.
	if err := k.Access(file, 1, Write); err != nil {
		t.Fatal(err)
	}
	file.FrameAt(1).Data()[0] = 0xAA

	if err := k.Access(space, 1, Write); err != nil {
		t.Fatal(err)
	}
	if !snapshot.HasPage(1) {
		t.Fatal("COW copy did not materialize in the snapshot segment")
	}
	if space.PageCount() != 0 {
		t.Fatal("COW copy materialized in the wrong segment")
	}
	if snapshot.FrameAt(1).Data()[0] != 0xAA {
		t.Fatal("COW copy lost the source data")
	}
	snapshot.FrameAt(1).Data()[0] = 0xBB
	if file.FrameAt(1).Data()[0] != 0xAA {
		t.Fatal("writing the snapshot changed the file")
	}
}

// Two COW views of the same file diverge independently.
func TestTwoCOWViewsDivergeIndependently(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 16, DeliverSameProcess)
	file, _ := k.CreateSegment("file", 1)
	v1, _ := k.CreateSegment("view1", 1)
	v2, _ := k.CreateSegment("view2", 1)
	for _, s := range []*Segment{file, v1, v2} {
		k.SetSegmentManager(s, m)
	}
	if err := k.MigratePages(SystemCred, k.BootSegment(), file, 200, 0, 1, FlagRead, 0); err != nil {
		t.Fatal(err)
	}
	file.FrameAt(0).Data()[0] = 0x11
	for _, v := range []*Segment{v1, v2} {
		if err := k.BindRegion(AppCred, v, 0, 1, file, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Access(v1, 0, Write); err != nil {
		t.Fatal(err)
	}
	v1.FrameAt(0).Data()[0] = 0x22
	if err := k.Access(v2, 0, Write); err != nil {
		t.Fatal(err)
	}
	v2.FrameAt(0).Data()[0] = 0x33
	if file.FrameAt(0).Data()[0] != 0x11 {
		t.Fatal("source corrupted")
	}
	if v1.FrameAt(0).Data()[0] != 0x22 || v2.FrameAt(0).Data()[0] != 0x33 {
		t.Fatal("views not independent")
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// A cyclic binding must not hang: resolution bounds its depth and errors.
func TestBindingCycleBounded(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	b, _ := k.CreateSegment("b", 1)
	if err := k.BindRegion(AppCred, a, 0, 4, b, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := k.BindRegion(AppCred, b, 0, 4, a, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := k.Access(a, 0, Read); err == nil {
		t.Fatal("cyclic binding resolved without error")
	}
}

// Migrating a frame into a bound region's address range works through the
// binding: §2.1's "migrating a page frame to the address range
// corresponding to the data region ... effectively migrates the page frame
// to the segment labeled Data Segment". Here we verify the equivalent
// observable: data written through the space is in the bound segment.
func TestWriteThroughBindingLandsInTarget(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 16, DeliverSameProcess)
	data, _ := k.CreateSegment("data", 1)
	space, _ := k.CreateSegment("space", 1)
	k.SetSegmentManager(data, m)
	k.SetSegmentManager(space, m)
	if err := k.BindRegion(AppCred, space, 4, 8, data, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := k.Access(space, 6, Write); err != nil {
		t.Fatal(err)
	}
	attrs, err := k.GetPageAttributes(data, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !attrs[0].Present || !attrs[0].Flags.Has(FlagDirty) {
		t.Fatalf("data page 2 attrs: %+v", attrs[0])
	}
}

// Property-style sweep: random non-overlapping bindings never mis-route a
// reference — the resolved page always equals the arithmetic expectation.
func TestBindingArithmeticProperty(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 64, DeliverSameProcess)
	target, _ := k.CreateSegment("target", 1)
	space, _ := k.CreateSegment("space", 1)
	k.SetSegmentManager(target, m)
	k.SetSegmentManager(space, m)
	// Bindings: [0,10) -> 100, [20,5) -> 50, [40,1) -> 0.
	binds := []struct{ start, n, tstart int64 }{
		{0, 10, 100}, {20, 5, 50}, {40, 1, 0},
	}
	for _, b := range binds {
		if err := k.BindRegion(AppCred, space, b.start, b.n, target, b.tstart, false); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(9)
	for i := 0; i < 100; i++ {
		b := binds[rng.Intn(len(binds))]
		off := int64(rng.Intn(int(b.n)))
		if err := k.Access(space, b.start+off, Write); err != nil {
			t.Fatal(err)
		}
		if !target.HasPage(b.tstart + off) {
			t.Fatalf("space page %d did not land at target page %d", b.start+off, b.tstart+off)
		}
	}
	// Accesses outside any binding fault on the space itself.
	if err := k.Access(space, 15, Write); err != nil {
		t.Fatal(err)
	}
	if !space.HasPage(15) {
		t.Fatal("unbound page did not materialize in the space")
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// Deleting a bound-to segment makes references through the binding fail
// cleanly rather than crash.
func TestBindingToDeletedSegmentErrors(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 8, DeliverSameProcess)
	target, _ := k.CreateSegment("target", 1)
	space, _ := k.CreateSegment("space", 1)
	k.SetSegmentManager(target, m)
	k.SetSegmentManager(space, m)
	if err := k.BindRegion(AppCred, space, 0, 4, target, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := k.DeleteSegment(AppCred, target); err != nil {
		t.Fatal(err)
	}
	if err := k.Access(space, 0, Read); !errors.Is(err, ErrNoSuchSegment) {
		t.Fatalf("err = %v, want ErrNoSuchSegment", err)
	}
}
