package manager_test

import (
	"errors"
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/workload"
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
	if _, err := manager.NewFixedPool(k, frames, 16); !errors.Is(err, kernel.ErrPageNotPresent) {
		t.Fatalf("NewFixedPool past the end of memory: err = %v, want ErrPageNotPresent", err)
	}
	if after := liveSegments(k); after != before {
		t.Fatalf("%d live segments after the failed pool, %d before", after, before)
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
	// The machine is as it was: the same request, shortened to fit, succeeds.
	pool, err := manager.NewFixedPool(k, frames-16, 16)
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

// The donor's numbering is model state (its page numbers are mapping-table
// keys): page i holds frame startPFN+i until it is granted, grants take the
// lowest pages, returns land above every page ever used.
func TestFixedPoolDonorNumbering(t *testing.T) {
	const stocked, startPFN = 1000, 16
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 2048 * 4096})
	k := bootKernel(mem)
	pool, err := manager.NewFixedPool(k, stocked, startPFN)
	if err != nil {
		t.Fatal(err)
	}
	g, err := manager.NewGeneric(k, manager.Config{Name: "m", Source: pool})
	if err != nil {
		t.Fatal(err)
	}
	// want says which donor pages hold a frame: [lo, stocked) as stocked,
	// frame startPFN+page each, and [stocked, stocked+returned) as returned.
	want := func(step string, lo, returned int64) {
		t.Helper()
		if got := int64(pool.FramesLeft()); got != stocked-lo+returned {
			t.Fatalf("%s: donor holds %d frames, want %d", step, got, stocked-lo+returned)
		}
		for page := int64(0); page < stocked+returned; page++ {
			f := pool.Donor.FrameAt(page)
			switch {
			case page < lo && f != nil:
				t.Fatalf("%s: granted donor page %d holds frame %d again", step, page, f.PFN())
			case page >= lo && f == nil:
				t.Fatalf("%s: donor page %d is empty", step, page)
			case page >= lo && page < stocked && int64(f.PFN()) != startPFN+page:
				t.Fatalf("%s: donor page %d holds frame %d, want %d", step, page, f.PFN(), startPFN+page)
			}
		}
	}
	want("stocked", 0, 0)
	if n, err := pool.RequestFrames(g, 300, phys.AnyFrame()); n != 300 || err != nil {
		t.Fatalf("take 300: %d frames, err %v", n, err)
	}
	want("300 taken", 300, 0)
	if n, err := g.ReturnFreeFrames(100); n != 100 || err != nil {
		t.Fatalf("return 100: %d frames, err %v", n, err)
	}
	want("100 returned", 300, 100)
	if n, err := pool.RequestFrames(g, 50, phys.AnyFrame()); n != 50 || err != nil {
		t.Fatalf("take 50: %d frames, err %v", n, err)
	}
	want("50 more taken", 350, 100)
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckSlots(); err != nil {
		t.Fatal(err)
	}
}

// The paper's 128 MB machine, and the default manager's pool inside it.
const bootMemPages, bootPoolPages = 32768, 32768 - 64

func bootMemory() *phys.Memory {
	return phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: bootMemPages * 4096})
}

func bootKernel(mem *phys.Memory) *kernel.Kernel {
	return kernel.New(mem, new(sim.Clock), sim.DECstation5000(), kernel.Config{})
}

// BenchmarkMachineBoot times what a Tables 2-3 pass pays before its first
// row, stage by stage: the machine's frames (phys.NewMemory, one pass per
// node's block), its kernel (kernel.New lays all 32 768 frames into the boot
// segment in straight passes) and the default manager's pool (NewFixedPool
// stocks 32 704 in one MigratePages, whose never-named source has no
// removes to interleave with its inserts); all is the three back to back,
// as NewMachine runs them. The pass boots once: every later row pays
// restore instead, which puts the post-stocking image back into a machine
// that has just run one row (diff) and makes the new row's runner — what
// workload.Machine.Runner does. Every stage reports ns/page over the pool's
// 32 704 pages.
func BenchmarkMachineBoot(b *testing.B) {
	stage := func(name string, setup func() *kernel.Kernel, run func(*kernel.Kernel)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k := setup()
				b.StartTimer()
				run(k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/bootPoolPages, "ns/page")
		})
	}
	none := func() *kernel.Kernel { return nil }
	stock := func(k *kernel.Kernel) {
		if _, err := manager.NewFixedPool(k, bootPoolPages, 16); err != nil {
			b.Fatal(err)
		}
	}
	mem := bootMemory()
	stage("mem", none, func(*kernel.Kernel) { bootMemory() })
	stage("kernel", none, func(*kernel.Kernel) { bootKernel(mem) })
	stage("pool", func() *kernel.Kernel { return bootKernel(mem) }, stock)
	stage("all", none, func(*kernel.Kernel) { stock(bootKernel(bootMemory())) })

	m, err := workload.NewMachine(bootMemPages, kernel.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var r *workload.VppRunner
	runner := func(*kernel.Kernel) {
		if r, err = m.Runner(nil); err != nil {
			b.Fatal(err)
		}
	}
	runner(nil)
	stage("restore", func() *kernel.Kernel {
		if _, _, err := workload.Run(r, workload.Diff()); err != nil {
			b.Fatal(err)
		}
		return nil
	}, runner)
}

// TestSerialFaultAllocatesNothing drives first-touch faults through Generic
// on the serial scheduler with a stocked free list — bench's fill, without
// the SPCM — and counts host allocations: a serial delivery is a call on
// scheduler-owned scratch and a group of one is one range, so none.
func TestSerialFaultAllocatesNothing(t *testing.T) {
	if manager.RaceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const faults = 256
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 4 << 20})
	k := bootKernel(mem)
	pool, err := manager.NewFixedPool(k, 2*faults, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := manager.NewGeneric(k, manager.Config{Name: "m", Source: pool})
	if err != nil {
		t.Fatal(err)
	}
	g.PresizeResident(faults + 1)
	if n, err := pool.RequestFrames(g, faults+1, phys.AnyFrame()); n != faults+1 || err != nil {
		t.Fatalf("stocking: %d frames, err %v", n, err)
	}
	seg, err := g.CreateManagedSegment("space")
	if err != nil {
		t.Fatal(err)
	}
	page := int64(0)
	allocs := testing.AllocsPerRun(faults, func() {
		if err := k.Access(seg, page, kernel.Write); err != nil {
			t.Fatal(err)
		}
		page++
	})
	if allocs != 0 {
		t.Errorf("%v host allocations per first-touch fault, want 0", allocs)
	}
	if st := g.Stats(); st.Faults != faults+1 || st.Grants != faults+1 {
		t.Fatalf("%d faults served from %d granted frames, want %d from the stocked %d", st.Faults, st.Grants, faults+1, faults+1)
	}
	for p := int64(0); p <= faults; p++ {
		if !seg.HasPage(p) {
			t.Fatalf("page %d not resident", p)
		}
	}
	if err := g.CheckSlots(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStockThenTouch is a boot and then what a Tables 2-3 run does with
// it: 300 single-frame grants out of the stocked donor, each a walk to the
// donor's first page, a look at its frame and a one-page MigratePages. It
// prices whatever stocking deferred to a page's first individual use.
func BenchmarkStockThenTouch(b *testing.B) {
	const touched = 300
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := bootKernel(bootMemory())
		pool, err := manager.NewFixedPool(k, bootPoolPages, 16)
		if err != nil {
			b.Fatal(err)
		}
		g, err := manager.NewGeneric(k, manager.Config{Name: "m", Source: pool})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < touched; j++ {
			if n, err := pool.RequestFrames(g, 1, phys.AnyFrame()); n != 1 || err != nil {
				b.Fatalf("grant %d: %d frames, err %v", j, n, err)
			}
		}
	}
}
