package manager

import (
	"errors"
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/phys"
	"epcm/internal/sim"
)

// liveSegments counts the registered segments among the first few IDs —
// every segment a freshly booted kernel and one NewFixedPool can have made.
func liveSegments(k *kernel.Kernel) int {
	n := 0
	for id := kernel.SegID(1); id <= 8; id++ {
		if _, err := k.Lookup(id); err == nil {
			n++
		}
	}
	return n
}

// A pool whose stocking migration is refused — here the range runs past the
// end of memory — must not leave its empty donor segment registered.
func TestNewFixedPoolFailureLeavesNoSegment(t *testing.T) {
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 1 << 20})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	before := liveSegments(k)
	frames := int64(mem.NumFrames())
	if _, err := NewFixedPool(k, frames, 16); !errors.Is(err, kernel.ErrPageNotPresent) {
		t.Fatalf("NewFixedPool past the end of memory: err = %v, want ErrPageNotPresent", err)
	}
	if after := liveSegments(k); after != before {
		t.Fatalf("%d live segments after the failed pool, %d before", after, before)
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
	// The machine is as it was: the same request, shortened to fit, succeeds.
	pool, err := NewFixedPool(k, frames-16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.FramesLeft(); int64(got) != frames-16 {
		t.Fatalf("pool holds %d frames, want %d", got, frames-16)
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMachineBoot times what every Tables 2-3 run pays before its first
// event: the paper's 128 MB machine (phys.NewMemory), its kernel
// (kernel.New parks 32 768 frames in the boot segment) and the default
// manager's pool (NewFixedPool stocks 32 704 of them in one MigratePages).
func BenchmarkMachineBoot(b *testing.B) {
	const memPages, poolPages = 32768, 32768 - 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: memPages * 4096})
		var clock sim.Clock
		k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
		if _, err := NewFixedPool(k, poolPages, 16); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/poolPages, "ns/page")
}
