package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// The serial scheduler must deliver exactly one missing fault per touched
// page, and the virtual-time model must show aggregate throughput scaling
// with the manager count (each manager is a separate process on its own
// processor in the paper's configuration).
func TestPlaneThroughputSerialScaling(t *testing.T) {
	one, err := PlaneThroughput(PlaneOptions{Scheduler: "serial", Managers: 1, FaultsPerManager: 128})
	if err != nil {
		t.Fatal(err)
	}
	four, err := PlaneThroughput(PlaneOptions{Scheduler: "serial", Managers: 4, FaultsPerManager: 128})
	if err != nil {
		t.Fatal(err)
	}
	if one.Faults != 128 {
		t.Errorf("1 manager: got %d faults, want 128", one.Faults)
	}
	if four.Faults != 4*128 {
		t.Errorf("4 managers: got %d faults, want %d", four.Faults, 4*128)
	}
	if four.ModelFaultsPerSec() < 2*one.ModelFaultsPerSec() {
		t.Errorf("model throughput did not scale: 1 manager %.0f faults/s, 4 managers %.0f faults/s",
			one.ModelFaultsPerSec(), four.ModelFaultsPerSec())
	}
}

// The concurrent scheduler must produce the same fault counts with one
// worker goroutine per manager; the -race runs of the suite check the
// sharded kernel structures and the SPCM ledger under real contention.
func TestPlaneThroughputConcurrent(t *testing.T) {
	for _, managers := range []int{1, 4} {
		r, err := PlaneThroughput(PlaneOptions{Scheduler: "concurrent", Managers: managers, FaultsPerManager: 128})
		if err != nil {
			t.Fatalf("%d managers: %v", managers, err)
		}
		if want := int64(managers) * 128; r.Faults != want {
			t.Errorf("%d managers: got %d faults, want %d", managers, r.Faults, want)
		}
	}
}

// BenchmarkDeliveryPlane times the delivery-plane cell on both schedulers
// at 2 managers × 1 driver and at 1 manager × 2 drivers, 8 192 faults per
// manager: the cells that say whether the concurrent scheduler pays for
// itself (ROADMAP item 3). The serial scheduler drives round-robin on one
// goroutine whatever Drivers says. One op is one whole cell, boot included.
// The collector is held off while an op runs and runs with the timer
// stopped between ops, so the numbers measure the delivery path, not the
// collector. ns*procs/fault is wall time × GOMAXPROCS per fault: an arm
// that wins wall time only by keeping a second core busy shows it there.
// Every cell stays under 0.1 allocs/fault (boot included, ≈ 0.06–0.08): a
// fault that boxes its page entry into a segment's sparse map read ≈ 0.7 on
// concurrent/1mgr/2drv.
func BenchmarkDeliveryPlane(b *testing.B) {
	const fpm = 8192
	for _, c := range []struct {
		sched             string
		managers, drivers int
	}{
		{"serial", 2, 1}, {"concurrent", 2, 1}, {"serial", 1, 2}, {"concurrent", 1, 2},
	} {
		b.Run(fmt.Sprintf("%s/%dmgr/%ddrv", c.sched, c.managers, c.drivers), func(b *testing.B) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			var faults int64
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				r, err := PlaneThroughput(PlaneOptions{
					Scheduler:        c.sched,
					Managers:         c.managers,
					FaultsPerManager: fpm,
					Drivers:          c.drivers,
				})
				if err != nil {
					b.Fatal(err)
				}
				faults += r.Faults
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perFault := float64(b.Elapsed().Nanoseconds()) / float64(faults)
			b.ReportMetric(perFault, "ns/fault")
			b.ReportMetric(perFault*float64(runtime.GOMAXPROCS(0)), "ns*procs/fault")
			allocs := float64(after.Mallocs-before.Mallocs) / float64(faults)
			b.ReportMetric(allocs, "allocs/fault")
			if allocs > 0.1 {
				b.Errorf("%.3f allocs/fault, want at most 0.1", allocs)
			}
		})
	}
}
