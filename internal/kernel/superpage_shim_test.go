package kernel

import (
	"errors"
	"testing"
)

// TestSuperpagesShim pins the meaning bench/ relies on until it fills
// Config.Superpages itself: it boots its kernels with the plane off and
// turns SetSuperpages on around each epoch, so the shim must reach a kernel
// that is already running — OR-ed into the kernel's own setting at call
// time, not copied at New. Not parallel: it flips process state, and the
// parallel superpage tests resume only after it has put it back.
func TestSuperpagesShim(t *testing.T) {
	k := newTestKernel(t) // booted with the plane off, before the shim is set
	seg, _ := k.CreateSegment("data", 1)
	fillAligned(t, k, seg, 16, 0, 16)
	if k.Superpages() || SuperpagesEnabled() {
		t.Fatal("plane on before anything turned it on")
	}
	if err := k.PromoteExtent(AppCred, seg, 0, 4); !errors.Is(err, ErrSuperpagesOff) {
		t.Fatalf("shim off: err = %v", err)
	}

	SetSuperpages(true)
	defer SetSuperpages(false)
	if !k.Superpages() || !SuperpagesEnabled() {
		t.Fatal("shim on did not reach a kernel booted before it")
	}
	if err := k.PromoteExtent(AppCred, seg, 0, 4); err != nil {
		t.Fatalf("shim on: %v", err)
	}
	moved, _ := k.CreateSegment("moved", 1)
	if err := k.MigratePagesBatch(SystemCred, k.BootSegment(), moved,
		[]PageRange{{Page: 32, To: 0, Pages: 16}}, FlagRW, 0); err != nil {
		t.Fatal(err)
	}
	if n := moved.ExtentCount(); n != 1 {
		t.Fatalf("shim on: aligned batch left %d extents, want 1", n)
	}

	SetSuperpages(false)
	if k.Superpages() {
		t.Fatal("shim off again did not reach the kernel")
	}
	if on := newSuperKernel(t); !on.Superpages() || SuperpagesEnabled() {
		t.Fatal("a kernel's own Config.Superpages must not need, or set, the shim")
	}
}
