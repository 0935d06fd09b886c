package experiments

// Regression harness for the multi-driver plane cells — several application
// threads per manager, so faults wait for the manager's mutex — with the
// market invariants checked inside PlaneThroughput itself. These cells stay
// a test, not a sweep row: how the drivers interleave depends on goroutine
// timing.

import (
	"testing"
)

// TestPlaneMultiDriver runs the multi-driver cells, where faults wait
// behind one another; PlaneThroughput's own post-run CheckInvariants
// (frame conservation included) is the assertion. Every fault must resolve.
//
// FaultsPerManager is sized so each driver's quarter starts beyond the page
// store's direct-dense region: the high-range drivers then park early pages
// in the sparse arm while the low-range driver's sequential growth overtakes
// them — the exact interleaving that once shadowed sparse entries behind the
// grown dense prefix and tripped frame conservation.
func TestPlaneMultiDriver(t *testing.T) {
	const fpm = 32768
	for _, managers := range []int{1, 2} {
		res, err := PlaneThroughput(PlaneOptions{
			Scheduler:        "concurrent",
			Managers:         managers,
			FaultsPerManager: fpm,
			Drivers:          4,
		})
		if err != nil {
			t.Fatalf("managers=%d: %v", managers, err)
		}
		want := int64(managers) * fpm
		if res.Faults != want {
			t.Fatalf("managers=%d: %d faults, want %d", managers, res.Faults, want)
		}
	}
}
