package experiments

import (
	"fmt"
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

// BenchmarkDeliveryPlane drives the delivery-plane cell: both schedulers at
// 1 and 4 managers at the sweep's size, and the two large cells a profile
// of the fault hot path wants (run with -cpuprofile/-memprofile). ns/op and
// -benchmem's allocs/op are the host-side numbers; model_faults/s is the
// paper-model aggregate throughput.
func BenchmarkDeliveryPlane(b *testing.B) {
	for _, c := range []struct {
		sched         string
		managers, fpm int
	}{
		{"serial", 1, 512}, {"serial", 4, 512}, {"concurrent", 1, 512}, {"concurrent", 4, 512},
		{"serial", 1, 32768}, {"concurrent", 8, 32768},
	} {
		b.Run(fmt.Sprintf("%s/%dmgr/%d", c.sched, c.managers, c.fpm), func(b *testing.B) {
			b.ReportAllocs()
			var faults int64
			var modelRate float64
			for i := 0; i < b.N; i++ {
				r, err := PlaneThroughput(PlaneOptions{
					Scheduler:        c.sched,
					Managers:         c.managers,
					FaultsPerManager: c.fpm,
				})
				if err != nil {
					b.Fatal(err)
				}
				faults += r.Faults
				modelRate = r.ModelFaultsPerSec()
			}
			b.ReportMetric(modelRate, "model_faults/s")
			b.ReportMetric(float64(faults)/float64(b.N), "faults/op")
		})
	}
}
