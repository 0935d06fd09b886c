package workload

import (
	"slices"
	"testing"
	"time"

	"epcm/internal/kernel"
)

func runBoth(t *testing.T, spec Spec) (vppElapsed, ultrixElapsed time.Duration, vpp, ult Counters) {
	t.Helper()
	cal, ultrixElapsed, ult, err := Calibrated(spec)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := NewVppRunner(0, kernel.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vppElapsed, vpp, err = Run(vr, cal)
	if err != nil {
		t.Fatal(err)
	}
	return
}

func within(t *testing.T, what string, got, want, tolPct int64) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff*100 > want*tolPct {
		t.Errorf("%s = %d, want %d (±%d%%)", what, got, want, tolPct)
	}
}

// Table 3: manager calls and MigratePages invocations for the three
// applications must land on the paper's measurements.
func TestTable3Activity(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			_, _, vpp, _ := runBoth(t, spec)
			within(t, "manager calls", vpp.ManagerCalls, spec.PaperCalls, 3)
			within(t, "migrate calls", vpp.MigrateCalls, spec.PaperMigrates, 3)
		})
	}
}

// Table 3 column 3: the manager overhead — (379µs − 175µs) × calls — is a
// small percentage of execution (1.9% diff, 0.63% uncompress, 0.35% latex).
func TestTable3OverheadSmall(t *testing.T) {
	wantPct := map[string]float64{"diff": 1.9, "uncompress": 0.63, "latex": 0.35}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			vppElapsed, _, vpp, _ := runBoth(t, spec)
			overhead := time.Duration(vpp.ManagerCalls) * 204 * time.Microsecond
			pct := 100 * float64(overhead) / float64(vppElapsed)
			want := wantPct[spec.Name]
			if pct < want*0.7 || pct > want*1.4 {
				t.Errorf("overhead = %.2f%% of execution, paper says %.2f%%", pct, want)
			}
		})
	}
}

// Table 2: elapsed times are comparable between systems — external
// page-cache management does not penalize ordinary programs. The paper's
// differences are within ±7%; we assert ours are too.
func TestTable2Comparable(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			vppElapsed, ultrixElapsed, _, _ := runBoth(t, spec)
			ratio := float64(vppElapsed) / float64(ultrixElapsed)
			if ratio < 0.93 || ratio > 1.07 {
				t.Errorf("V++/Ultrix = %.3f, want within ±7%% (V++ %v, Ultrix %v)",
					ratio, vppElapsed, ultrixElapsed)
			}
			// The Ultrix side is calibrated to the paper by construction.
			within(t, "ultrix ms", ultrixElapsed.Milliseconds(), spec.UltrixElapsed.Milliseconds(), 1)
		})
	}
}

// §3.2: V++ makes twice as many read/write calls as ULTRIX because its I/O
// unit is half the size.
func TestIOUnitCallCounts(t *testing.T) {
	_, _, vpp, ult := runBoth(t, Uncompress())
	if vpp.ReadCalls != 2*ult.ReadCalls {
		t.Errorf("read calls: V++ %d vs Ultrix %d, want 2x", vpp.ReadCalls, ult.ReadCalls)
	}
	if vpp.WriteCalls != 2*ult.WriteCalls {
		t.Errorf("write calls: V++ %d vs Ultrix %d, want 2x", vpp.WriteCalls, ult.WriteCalls)
	}
}

// Ultrix zero-fills every allocation; V++ never zeroes (no frame changes
// user within a run).
func TestZeroFillAsymmetry(t *testing.T) {
	_, _, _, ult := runBoth(t, Diff())
	if ult.ZeroFills == 0 {
		t.Error("Ultrix run performed no zero fills")
	}
}

func TestCalibrationIsDeterministic(t *testing.T) {
	compute := func() time.Duration {
		cal, _, _, err := Calibrated(Diff())
		if err != nil {
			t.Fatal(err)
		}
		return cal.Steps[len(cal.Steps)-1].Compute
	}
	c1, c2 := compute(), compute()
	if c1 != c2 {
		t.Fatalf("calibration differs: %v vs %v", c1, c2)
	}
	if c1 <= 0 || c1 >= Diff().UltrixElapsed {
		t.Fatalf("implausible compute %v", c1)
	}
}

// The Ultrix result Calibrated returns from its one bare run is what running
// the calibrated spec on a second fresh Ultrix system measures.
func TestCalibratedUltrixIsTheCalibratedRun(t *testing.T) {
	for _, spec := range All() {
		cal, ue, uc, err := Calibrated(spec)
		if err != nil {
			t.Fatal(err)
		}
		e, c, err := Run(NewUltrixRunner(0), cal)
		if err != nil {
			t.Fatal(err)
		}
		if ue != e || uc != c {
			t.Errorf("%s: Calibrated's Ultrix result %v %+v, the calibrated run %v %+v", spec.Name, ue, uc, e, c)
		}
	}
}

// Twenty runs of one program on identically built machines are one run: the
// same elapsed time, the same Table 3 counters and — on V++ — the same
// kernel.Stats down to the hash spills, which depend on the segment IDs,
// donor pages and free slots each pre-cached input file was given.
func TestRunIsDeterministic(t *testing.T) {
	type outcome struct {
		elapsed time.Duration
		c       Counters
		ks      kernel.Stats
	}
	for _, spec := range []Spec{Diff(), Uncompress(), Latex()} {
		var vpp, ult outcome
		for i := 0; i < 20; i++ {
			vr, err := NewVppRunner(0, kernel.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var v, u outcome
			if v.elapsed, v.c, err = Run(vr, spec); err != nil {
				t.Fatal(err)
			}
			v.ks = vr.K.Stats()
			if u.elapsed, u.c, err = Run(NewUltrixRunner(0), spec); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				vpp, ult = v, u
			}
			if v != vpp {
				t.Fatalf("%s on V++, run %d: %+v, run 0: %+v", spec.Name, i, v, vpp)
			}
			if u != ult {
				t.Fatalf("%s on Ultrix, run %d: %+v, run 0: %+v", spec.Name, i, u, ult)
			}
		}
	}
}

// A workload on a machine smaller than its footprint completes through
// default-manager reclamation — the full paging path end to end.
func TestWorkloadUnderMemoryPressure(t *testing.T) {
	spec := Diff() // footprint: ~100 input pages + 357 heap + 60 output
	cal, _, _, err := Calibrated(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 288 usable pages: far less than the ~520-page footprint.
	vr, err := NewVppRunner(352, kernel.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed, c, err := Run(vr, cal)
	if err != nil {
		t.Fatal(err)
	}
	if vr.D.Generic.Stats().Reclaims == 0 {
		t.Fatal("no reclamation despite memory pressure")
	}
	// Paging costs real time: the pressured run is slower than the
	// unpressured paper run.
	unpressured, _, err := Run(mustVpp(t), cal)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= unpressured {
		t.Fatalf("pressured %v not slower than unpressured %v", elapsed, unpressured)
	}
	// diff is one-pass, so reclaimed pages are not re-referenced: the
	// manager-call count stays put, but reclamation (and its swap
	// writebacks for dirty heap pages) must have happened.
	if vr.D.Generic.Stats().Writebacks == 0 {
		t.Fatal("pressure produced no writebacks")
	}
	_ = c
	if err := vr.K.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func mustVpp(t *testing.T) *VppRunner {
	t.Helper()
	r, err := NewVppRunner(0, kernel.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// One machine runs the three Tables 2-3 programs forward and then in
// reverse, each on a new runner, so every row but the first starts from a
// restore: each row's elapsed time, Table 3 counters and kernel.Stats must
// equal its run on a freshly booted machine, on every kernel configuration.
func TestMachineRowsAreIndependent(t *testing.T) {
	type outcome struct {
		elapsed time.Duration
		c       Counters
		ks      kernel.Stats
	}
	run := func(r *VppRunner, spec Spec) outcome {
		t.Helper()
		e, c, err := Run(r, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.K.CheckFrameConservation(); err != nil {
			t.Fatal(err)
		}
		return outcome{e, c, r.K.Stats()}
	}
	specs := All()
	order := append(slices.Clone(specs), specs...)
	slices.Reverse(order[len(specs):])
	for _, cfg := range []kernel.Config{{}, {Concurrent: true}, {Superpages: true}} {
		fresh := make(map[string]outcome)
		for _, spec := range specs {
			vr, err := NewVppRunner(0, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh[spec.Name] = run(vr, spec)
		}
		m, err := NewMachine(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range order {
			vr, err := m.Runner(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := run(vr, spec); got != fresh[spec.Name] {
				t.Fatalf("%+v: row %d (%s) on one machine: %+v, on a fresh boot: %+v", cfg, i, spec.Name, got, fresh[spec.Name])
			}
		}
	}
}
