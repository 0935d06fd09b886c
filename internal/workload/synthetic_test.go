package workload

import (
	"testing"
	"time"

	"epcm/internal/kernel"
)

func TestScanWorkloadRunsOnBothSystems(t *testing.T) {
	spec := Scan(64, 16, 32, 2, 10*time.Millisecond)
	vr, err := NewVppRunner(4096, kernel.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ve, vc, err := Run(vr, spec)
	if err != nil {
		t.Fatal(err)
	}
	ur := NewUltrixRunner(4096)
	ue, uc, err := Run(ur, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ve <= 0 || ue <= 0 {
		t.Fatalf("elapsed %v / %v", ve, ue)
	}
	// Two passes of 64 pages in the V++ 4K unit vs the Ultrix 8K unit.
	if vc.ReadCalls != 2*uc.ReadCalls {
		t.Fatalf("read calls %d vs %d, want 2x", vc.ReadCalls, uc.ReadCalls)
	}
	// The second pass is fully cached: heap faults only on pass one.
	if vc.Faults == 0 {
		t.Fatal("no faults at all")
	}
}

func TestRandomWorkloadIdenticalReferenceString(t *testing.T) {
	spec := RandomTouch(64, 500, 11)
	run := func() (int64, int64) {
		vr, err := NewVppRunner(4096, kernel.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, vc, err := Run(vr, spec)
		if err != nil {
			t.Fatal(err)
		}
		return vc.Faults, vc.MigrateCalls
	}
	f1, m1 := run()
	f2, m2 := run()
	if f1 != f2 || m1 != m2 {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d", f1, m1, f2, m2)
	}
	// 500 touches over 64 pages: at most 64 first-touch faults.
	if f1 == 0 || f1 > 64 {
		t.Fatalf("faults = %d, want in (0, 64]", f1)
	}
}

func TestRandomWorkloadDifferentSeedsDiffer(t *testing.T) {
	// Different seeds produce different reference strings; with a small
	// touch budget, the touched-page subsets (and hence fault counts)
	// almost surely differ.
	countFaults := func(seed uint64) int64 {
		vr, err := NewVppRunner(4096, kernel.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, vc, err := Run(vr, RandomTouch(512, 40, seed))
		if err != nil {
			t.Fatal(err)
		}
		return vc.Faults
	}
	a := countFaults(1)
	b := countFaults(2)
	c := countFaults(3)
	if a == b && b == c {
		t.Fatalf("three seeds gave identical fault counts %d — suspicious", a)
	}
}

func TestSyntheticSpecsWellFormed(t *testing.T) {
	for _, s := range Synthetic() {
		if s.Name == "" || len(s.Steps) == 0 {
			t.Fatalf("malformed synthetic spec %+v", s)
		}
	}
}
