package phys_test

import (
	"bytes"
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/storage"
	"epcm/internal/uio"
)

// zeroPageOf returns the buffer WithData passes for a frame with no bytes,
// read through probe, which must never have been written.
func zeroPageOf(t *testing.T, probe *phys.Frame) []byte {
	t.Helper()
	var zero []byte
	_ = probe.WithData(func(buf []byte) error { zero = buf; return nil })
	if !bytes.Equal(zero, make([]byte, probe.Size())) {
		t.Fatal("a frame with no bytes does not read as zeros")
	}
	return zero
}

// passesZeroPage reports whether WithData on f passes the page zero.
func passesZeroPage(f *phys.Frame, zero []byte) bool {
	same := false
	_ = f.WithData(func(buf []byte) error { same = &buf[0] == &zero[0]; return nil })
	return same
}

type machine struct {
	mem   *phys.Memory
	clock *sim.Clock
	k     *kernel.Kernel
	store *storage.Store
	pool  *manager.FixedPool
}

func newMachine(t *testing.T, storeData bool) *machine {
	t.Helper()
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 1 << 20, StoreData: storeData})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	pool, err := manager.NewFixedPool(k, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &machine{mem: mem, clock: &clock, k: k,
		store: storage.NewStore(&clock, storage.LocalDisk(), 4096), pool: pool}
}

// TestWithDataCallersLeaveZeroPageZero runs every WithData caller on frames
// with no bytes, where each gets the memory's shared zero page, and checks
// that none of them wrote it: a uio read, SwapBacking and FileBacking
// writebacks, and the prefetch manager's asynchronous writeback.
func TestWithDataCallersLeaveZeroPageZero(t *testing.T) {
	checkZero := func(t *testing.T, zero []byte, after string) {
		t.Helper()
		if !bytes.Equal(zero, make([]byte, len(zero))) {
			t.Fatalf("zero page written by %s", after)
		}
	}

	t.Run("data", func(t *testing.T) {
		m := newMachine(t, true)
		zero := zeroPageOf(t, m.mem.Frame(phys.PFN(m.mem.NumFrames()-1)))
		swap := manager.NewSwapBacking(m.store)
		g, err := manager.NewGeneric(m.k, manager.Config{Name: "swap", Source: m.pool, Backing: swap})
		if err != nil {
			t.Fatal(err)
		}
		seg, err := g.CreateManagedSegment("heap")
		if err != nil {
			t.Fatal(err)
		}
		// A never-swapped page fills with no I/O, so its frame has no bytes.
		if err := m.k.Access(seg, 0, kernel.Read); err != nil {
			t.Fatal(err)
		}
		frame := seg.FrameAt(0)
		if !passesZeroPage(frame, zero) {
			t.Fatal("resident page's frame holds bytes; it cannot probe the zero page")
		}
		buf := bytes.Repeat([]byte{0xEE}, 4096)
		if err := uio.Open(m.k, seg, "heap", 1).ReadBlock(0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, make([]byte, 4096)) {
			t.Fatal("uio read of a frame with no bytes did not return zeros")
		}
		checkZero(t, zero, "uio read")
		if err := swap.Writeback(seg, 0, frame); err != nil {
			t.Fatal(err)
		}
		checkZero(t, zero, "SwapBacking.Writeback")
		file := manager.NewFileBacking(m.store)
		file.BindFile(seg, "file")
		if err := file.Writeback(seg, 0, frame); err != nil {
			t.Fatal(err)
		}
		checkZero(t, zero, "FileBacking.Writeback")
		if m.store.Writes() != 2 {
			t.Fatalf("store saw %d writes, want 2", m.store.Writes())
		}
	})

	t.Run("metadata-only", func(t *testing.T) {
		m := newMachine(t, false)
		zero := zeroPageOf(t, m.mem.Frame(0))
		dev := manager.NewAsyncDevice(m.clock, storage.LocalDisk())
		pf, err := manager.NewPrefetch(m.k, manager.Config{Name: "pf", Source: m.pool}, dev, m.store, 2)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := pf.CreateManagedSegment("data")
		if err != nil {
			t.Fatal(err)
		}
		pf.BindFile(seg, "data")
		for p := int64(0); p < 8; p++ {
			if err := m.k.Access(seg, p, kernel.Write); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.k.ModifyPageFlags(kernel.AppCred, seg, 0, 8, 0, kernel.FlagReferenced); err != nil {
			t.Fatal(err)
		}
		if _, err := pf.Reclaim(4, phys.AnyFrame()); err != nil {
			t.Fatal(err)
		}
		if m.store.Writes() < 4 {
			t.Fatalf("async writeback stored %d pages, want >= 4", m.store.Writes())
		}
		checkZero(t, zero, "the prefetch manager's async writeback")
	})
}
