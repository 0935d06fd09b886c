package core

// Differential tests for colliding drivers: the same workload, run by
// several drivers against one manager under the concurrent scheduler (where
// faults wait for the manager's mutex) and by one driver under the serial
// scheduler, must resolve the same faults — same fault count, same fill
// count, same final residency, one upcall per fault — for each replacement
// policy whose hooks keep state. Where a fault waits changes nothing about
// which faults exist or how they resolve.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
)

// collidePolicies: the named policies whose hooks keep state run the
// differential (random's keep none). Victim selection never fires (the
// workload fits in memory), but the touch/admit hooks run on every fault
// under both schedulers.
var collidePolicies = []string{"clock", "lfu"}

// slowZeroBacking is ZeroFill with a stall in Fill: while one driver is
// parked inside the manager, holding its mutex, the other drivers wait for
// it, so faults actually collide even on a small host.
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

// collideCounts is what one run of the workload produced, in quantities
// that must not depend on how the drivers interleave.
type collideCounts struct {
	Faults   int64 // manager fault events
	Fills    int64 // backing fills
	Resident int   // pages resident at the end
	KMissing int64 // kernel missing-fault count
	Upcalls  int64 // kernel ManagerCalls: no segment is deleted, so upcalls
}

// runCollide drives drivers x pagesPerDriver disjoint first-touch writes
// against one managed segment, then a full read pass, and returns the
// counts. The serial scheduler runs one driver (its delivery plane is a
// synchronous call chain, and the single chain is the golden-reference
// shape).
func runCollide(t *testing.T, sched, policy string, drivers int, pagesPerDriver int64) collideCounts {
	t.Helper()
	sys, err := Boot(Config{MemoryBytes: 16 << 20, Scheduler: sched, ReclaimPolicy: policy})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := sys.NewAppManager(manager.Config{
		Name:    "collide-manager",
		Backing: slowZeroBacking{},
	}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := g.CreateManagedSegment("collide-data")
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
	return collideCounts{
		Faults:   g.Stats().Faults,
		Fills:    g.Stats().Fills,
		Resident: seg.PageCount(),
		KMissing: st.MissingFaults,
		Upcalls:  st.ManagerCalls,
	}
}

// TestCollidingDriversMatchSerialPerPolicy: for each policy, four colliding
// drivers under the concurrent scheduler and one driver under the serial
// scheduler both resolve exactly one fault and one fill per first-touch
// page, through one upcall per fault, and end fully resident. Any lost
// fault shows up as a short count or an unreadable page; any
// double-resolution as an extra fault or fill (the kernel would reject the
// second migration with ErrPageBusy); an upcall that carried more than one
// fault as fewer upcalls than faults.
func TestCollidingDriversMatchSerialPerPolicy(t *testing.T) {
	const (
		drivers        = 4
		pagesPerDriver = 192
		footprint      = int64(drivers) * pagesPerDriver
	)
	want := collideCounts{Faults: footprint, Fills: footprint, Resident: int(footprint), KMissing: footprint, Upcalls: footprint}
	for _, policy := range collidePolicies {
		t.Run(policy, func(t *testing.T) {
			colliding := runCollide(t, "concurrent", policy, drivers, pagesPerDriver)
			serial := runCollide(t, "serial", policy, 1, footprint)
			for _, c := range []struct {
				mode string
				got  collideCounts
			}{{"colliding", colliding}, {"serial", serial}} {
				if c.got != want {
					t.Errorf("%s/%s counts = %+v, want %+v", policy, c.mode, c.got, want)
				}
			}
		})
	}
}

// TestCostParitySingleDriver: one driver under the concurrent
// scheduler — the shape every golden table runs — must produce the same
// virtual-time total as the serial scheduler: each fault is one delivery
// under either, charged the same legs.
func TestCostParitySingleDriver(t *testing.T) {
	elapsed := func(sched string) time.Duration {
		sys, err := Boot(Config{MemoryBytes: 16 << 20, Scheduler: sched})
		if err != nil {
			t.Fatal(err)
		}
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
		if st := sys.Kernel.Stats(); st.ManagerCalls != st.Faults {
			t.Fatalf("single-chain %s run: %d upcalls for %d faults", sched, st.ManagerCalls, st.Faults)
		}
		return sys.Clock.Now()
	}
	if conc, serial := elapsed("concurrent"), elapsed("serial"); conc != serial {
		t.Fatalf("single-chain virtual time differs: %v concurrent vs %v serial", conc, serial)
	}
}
