package core

// Differential tests for vectored fault delivery: the same workload, run
// by colliding drivers under the concurrent scheduler (where fault runs
// form) and by one driver under the serial scheduler (which never delivers
// a run longer than one), must resolve the same faults — same fault count,
// same fill count, same final residency — for every registered replacement
// policy. Vectoring changes
// how faults are *delivered* (batched upcalls) and *charged* (per-batch
// trap/delivery legs), never which faults exist or how they resolve.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
)

// vecDiffPolicies: every registered policy runs the differential. Victim
// selection never fires (the workload fits in memory), but the touch/admit
// hooks run on every fault in both delivery modes.
var vecDiffPolicies = []string{"clock", "fifo", "lru", "lfu", "s3fifo", "mglru"}

// slowZeroBacking is ZeroFill with a stall in Fill: while the lane's token
// holder is parked inside the manager, the other drivers enqueue behind it,
// which is what makes vectored batches actually form on a small host.
type slowZeroBacking struct {
	manager.ZeroFill
	stall time.Duration
}

func (b slowZeroBacking) Fill(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	if b.stall > 0 {
		time.Sleep(b.stall)
	} else {
		runtime.Gosched()
	}
	return b.ZeroFill.Fill(seg, page, frame)
}

// vecDiffCounts is what one run of the workload produced, in quantities
// that must be invariant under delivery vectoring.
type vecDiffCounts struct {
	Faults   int64 // manager fault events
	Fills    int64 // backing fills
	Resident int   // pages resident at the end
	KMissing int64 // kernel missing-fault count
}

// runVecDiff drives drivers x pagesPerDriver disjoint first-touch writes
// against one managed segment, then a full read pass, and returns the
// counts. The serial scheduler runs one driver (its delivery plane is a
// synchronous call chain, and the single chain is the golden-reference
// shape).
func runVecDiff(t *testing.T, sched, policy string, drivers int, pagesPerDriver int64) (vecDiffCounts, int64) {
	t.Helper()
	sys, err := Boot(Config{MemoryBytes: 16 << 20, Scheduler: sched, ReclaimPolicy: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	g, _, err := sys.NewAppManager(manager.Config{
		Name:    "vecdiff-manager",
		Backing: slowZeroBacking{},
	}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := g.CreateManagedSegment("vecdiff-data")
	if err != nil {
		t.Fatal(err)
	}

	footprint := int64(drivers) * pagesPerDriver
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			lo := int64(d) * pagesPerDriver
			for p := lo; p < lo+pagesPerDriver; p++ {
				if err := sys.Kernel.Access(seg, p, kernel.Write); err != nil {
					t.Errorf("driver %d write page %d: %v", d, p, err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Every page is now resident; the read pass must fault nothing.
	faultsAfterWrites := g.Stats().Faults
	for p := int64(0); p < footprint; p++ {
		if err := sys.Kernel.Access(seg, p, kernel.Read); err != nil {
			t.Fatalf("read page %d: %v", p, err)
		}
	}
	if got := g.Stats().Faults; got != faultsAfterWrites {
		t.Fatalf("read pass faulted %d times on resident pages", got-faultsAfterWrites)
	}
	st := sys.Kernel.Stats()
	return vecDiffCounts{
		Faults:   g.Stats().Faults,
		Fills:    g.Stats().Fills,
		Resident: seg.PageCount(),
		KMissing: st.MissingFaults,
	}, st.VectoredBatches
}

// TestVectoredDifferentialCountsPerPolicy: for every policy, the vectored
// concurrent run and the serial run both resolve exactly one fault and one
// fill per first-touch page, and end fully resident. Any lost fault shows up as a short count or an
// unreadable page; any double-resolution shows up as an extra fault or
// fill (the kernel would reject the second migration with ErrPageBusy).
func TestVectoredDifferentialCountsPerPolicy(t *testing.T) {
	const (
		drivers        = 4
		pagesPerDriver = 192
		footprint      = int64(drivers) * pagesPerDriver
	)
	want := vecDiffCounts{Faults: footprint, Fills: footprint, Resident: int(footprint), KMissing: footprint}
	var sawBatches int64
	for _, policy := range vecDiffPolicies {
		t.Run(policy, func(t *testing.T) {
			vectored, batches := runVecDiff(t, "concurrent", policy, drivers, pagesPerDriver)
			sawBatches += batches
			serial, _ := runVecDiff(t, "serial", policy, 1, footprint)
			for _, c := range []struct {
				mode string
				got  vecDiffCounts
			}{{"vectored", vectored}, {"serial", serial}} {
				if c.got != want {
					t.Errorf("%s/%s counts = %+v, want %+v", policy, c.mode, c.got, want)
				}
			}
		})
	}
	// Batch formation is timing-dependent (an unloaded lane takes the
	// inline fast path), so no single policy's run is required to batch —
	// but across six policies of four colliding drivers each, at least one
	// vectored upcall must have formed, or the vector path never ran.
	if sawBatches == 0 {
		t.Error("no vectored batches formed across any policy run; the vector path went unexercised")
	} else {
		t.Logf("vectored runs formed %d batches", sawBatches)
	}
}

// TestVectoredCostParitySingleChain: one driver under the concurrent
// scheduler — the shape every golden table runs — must produce the same
// virtual-time total as the serial scheduler, because a single chain of
// deliveries never queues two faults and so never forms a run longer than
// one.
func TestVectoredCostParitySingleChain(t *testing.T) {
	elapsed := func(sched string) time.Duration {
		sys, err := Boot(Config{MemoryBytes: 16 << 20, Scheduler: sched})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Shutdown()
		g, _, err := sys.NewAppManager(manager.Config{Name: "parity-" + sched, Backing: manager.ZeroFill{}}, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := g.CreateManagedSegment("parity-data")
		if err != nil {
			t.Fatal(err)
		}
		for p := int64(0); p < 512; p++ {
			if err := sys.Kernel.Access(seg, p, kernel.Write); err != nil {
				t.Fatal(err)
			}
		}
		if b := sys.Kernel.Stats().VectoredBatches; b != 0 {
			t.Fatalf("single-chain %s run formed %d batches; the inline fast path should never batch", sched, b)
		}
		return sys.Clock.Now()
	}
	if conc, serial := elapsed("concurrent"), elapsed("serial"); conc != serial {
		t.Fatalf("single-chain virtual time differs: %v concurrent vs %v serial", conc, serial)
	}
}
