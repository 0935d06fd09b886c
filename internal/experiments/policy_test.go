package experiments

import "testing"

// TestPolicyShootoutSmoke runs a tiny 2-policy × 1-workload grid and checks
// every cell is plausible and that pressure bites.
func TestPolicyShootoutSmoke(t *testing.T) {
	t.Parallel()
	cells, err := policyGrid([]string{"clock", "s3fifo"}, []string{"zipf"}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 1 * len(policyPressures); len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Faults <= 0 || c.HitRate < 0 || c.HitRate >= 1 {
			t.Errorf("%s/%s/%s: implausible cell %+v", c.Policy, c.Workload, c.Pressure, c)
		}
		// At light pressure a short ref string may fit in memory; heavy
		// pressure must always force evictions.
		if c.Pressure == "heavy" && c.Reclaims <= 0 {
			t.Errorf("%s/%s/%s: no reclaims — pressure never bit", c.Policy, c.Workload, c.Pressure)
		}
	}
}

// TestPolicyRefsShapes pins the structural properties the policy sweep relies
// on: determinism, footprints, and the scan/loop shapes.
func TestPolicyRefsShapes(t *testing.T) {
	for _, wl := range []string{"zipf", "scan", "loop", "mixed"} {
		a, err := policyRefs(wl, 3000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := policyRefs(wl, 3000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: ref %d differs between runs (%d vs %d)", wl, i, a[i], b[i])
			}
		}
	}
	if _, err := policyRefs("nosuch", 10); err == nil {
		t.Fatal("unknown workload must error")
	}
}

// TestFIFOShootoutCell runs one real shootout cell under the new strict
// FIFO policy: a kernel, a fixed pool, a manager bound to "fifo", and the
// zipf reference string at heavy pressure. FIFO has no recency protection,
// so it must fault more than clock's second-chance sweep on the same cell —
// the behavioural difference that proves Touch/reference bits really are
// ignored end to end.
func TestFIFOShootoutCell(t *testing.T) {
	refs, err := policyRefs("zipf", 4000)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := runPolicyCell("fifo", "zipf", "heavy", refs, 128)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Faults <= 0 || cell.Reclaims <= 0 {
		t.Fatalf("fifo cell never reclaimed: %+v", cell)
	}
	if cell.HitRate <= 0.2 || cell.HitRate >= 1 {
		t.Fatalf("fifo hit rate %.3f implausible on zipf/heavy", cell.HitRate)
	}
	clock, err := runPolicyCell("clock", "zipf", "heavy", refs, 128)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Faults < clock.Faults {
		t.Fatalf("strict fifo out-performed clock on a skewed workload (fifo %d faults, clock %d): recency is leaking in",
			cell.Faults, clock.Faults)
	}
}

// TestRandomShootoutCell runs one real shootout cell under the new
// uniform-random policy and re-runs it to pin determinism: the fixed-seed
// RNG must give identical fault counts and virtual latency both times.
func TestRandomShootoutCell(t *testing.T) {
	refs, err := policyRefs("zipf", 4000)
	if err != nil {
		t.Fatal(err)
	}
	first, err := runPolicyCell("random", "zipf", "heavy", refs, 128)
	if err != nil {
		t.Fatal(err)
	}
	if first.Faults <= 0 || first.Reclaims <= 0 {
		t.Fatalf("random cell never reclaimed: %+v", first)
	}
	if first.HitRate <= 0.2 || first.HitRate >= 1 {
		t.Fatalf("random hit rate %.3f implausible on zipf/heavy", first.HitRate)
	}
	second, err := runPolicyCell("random", "zipf", "heavy", refs, 128)
	if err != nil {
		t.Fatal(err)
	}
	if first.Faults != second.Faults || first.FaultLatencyUS != second.FaultLatencyUS {
		t.Fatalf("random cell not deterministic: %d/%f vs %d/%f faults/latency",
			first.Faults, first.FaultLatencyUS, second.Faults, second.FaultLatencyUS)
	}
}
