package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// The scale sweep is the wall-clock acceptance experiment for the delivery
// plane: manager counts × scheduler, each cell a full PlaneThroughput run.
// Model throughput already scaled with managers in the PR 3 harness; this
// sweep exists to show the *wall* throughput does too once delivery stops
// rendezvousing through locks and kernel calls are batched.

// PlaneSweep is one recorded sweep: a timestamped group of runs appended to
// a BENCH_*.json trajectory file.
type PlaneSweep struct {
	GeneratedAt string `json:"generated_at"`
	// GoMaxProcs is the value in effect while the sweep's cells ran (sweeps
	// raise it to the widest cell); NumCPU is what the hardware can actually
	// back. Both are always recorded — a 16-manager cell on a 1-CPU host is
	// time-slicing, and readers comparing sweeps need to see that. Zero
	// NumCPU only appears on sweeps converted from the legacy layout, which
	// never recorded it.
	GoMaxProcs       int           `json:"gomaxprocs"`
	NumCPU           int           `json:"num_cpu"`
	FaultsPerManager int           `json:"faults_per_manager"`
	Note             string        `json:"note,omitempty"`
	Runs             []PlaneResult `json:"runs"`
	// Scaling1To4 is model faults/sec at 4 managers over 1 manager
	// (concurrent, batched), when both cells are present.
	Scaling1To4 float64 `json:"scaling_1_to_4_managers,omitempty"`
	// WallSpeedup4Mgr is concurrent over serial wall faults/sec at 4
	// managers (batched) — the ≥1.5x acceptance number.
	WallSpeedup4Mgr float64 `json:"wall_speedup_4mgr_concurrent_vs_serial,omitempty"`
	// SuperSpeedup8Mgr is the superpage arm's wall pages/sec over the
	// base arm at 8 managers — the superpage sweep's ≥2x acceptance
	// number.
	SuperSpeedup8Mgr float64 `json:"super_wall_speedup_8mgr_vs_base,omitempty"`
	// VectorSpeedup16Mgr is the vectored-delivery arm's wall faults/sec
	// over its vector-off ablation at 16 managers (both multi-driver).
	// The ablation arm is retired; the field is kept so sweeps that
	// recorded the ratio survive a load-append-store round trip.
	VectorSpeedup16Mgr float64 `json:"vector_wall_speedup_16mgr,omitempty"`
}

// NewPlaneSweep stamps an empty sweep with the current time, GOMAXPROCS
// and the host's CPU count.
func NewPlaneSweep(faultsPerManager int, note string) *PlaneSweep {
	return &PlaneSweep{
		GeneratedAt:      time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		FaultsPerManager: faultsPerManager,
		Note:             note,
	}
}

// benchFile is the on-disk shape of BENCH_plane.json / BENCH_scale.json: a
// benchmark name plus appended sweeps. The legacy single-sweep fields are
// kept so a pre-sweep file converts in place on first append instead of
// losing its recorded run.
type benchFile struct {
	Benchmark string        `json:"benchmark"`
	Sweeps    []*PlaneSweep `json:"sweeps,omitempty"`

	// Legacy top-level single-sweep layout.
	GeneratedAt      string        `json:"generated_at,omitempty"`
	GoMaxProcs       int           `json:"gomaxprocs,omitempty"`
	FaultsPerManager int           `json:"faults_per_manager,omitempty"`
	Note             string        `json:"note,omitempty"`
	Runs             []PlaneResult `json:"runs,omitempty"`
	Scaling1To4      float64       `json:"scaling_1_to_4_managers,omitempty"`
}

// AppendBenchSweep appends a sweep to the named trajectory file, creating
// it if absent and converting a legacy single-sweep file into the first
// entry of the trajectory rather than overwriting it.
func AppendBenchSweep(path, benchmark string, sweep *PlaneSweep) error {
	f := &benchFile{Benchmark: benchmark}
	if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
		// A zero-length file (a fresh mktemp target) starts an empty
		// trajectory rather than failing to parse.
		if err := json.Unmarshal(raw, f); err != nil {
			return fmt.Errorf("experiments: %s: %w", path, err)
		}
		if len(f.Runs) > 0 {
			// Legacy layout: demote the top-level run set to sweep #0.
			f.Sweeps = append([]*PlaneSweep{{
				GeneratedAt:      f.GeneratedAt,
				GoMaxProcs:       f.GoMaxProcs,
				FaultsPerManager: f.FaultsPerManager,
				Note:             f.Note,
				Runs:             f.Runs,
				Scaling1To4:      f.Scaling1To4,
			}}, f.Sweeps...)
		}
		f.GeneratedAt, f.GoMaxProcs, f.FaultsPerManager, f.Note, f.Runs, f.Scaling1To4 =
			"", 0, 0, "", nil, 0
	}
	if f.Benchmark == "" {
		f.Benchmark = benchmark
	}
	f.Sweeps = append(f.Sweeps, sweep)
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// scaleReps is how many times each sweep cell runs; the cell reports its
// best run (wall clock on a shared host only ever errs slow).
const scaleReps = 5

// vecDrivers is how many faulting goroutines drive each manager in the
// sweep's vectored-delivery cells — enough producers per lane that drains
// pop multi-fault runs.
const vecDrivers = 4

// ScaleSweep runs the full wall-clock scaling matrix: every manager count ×
// serial/concurrent, then the multi-driver vectored-delivery cells,
// sequentially. It returns the rendered report and the sweep for
// BENCH_scale.json.
func ScaleSweep(faultsPerManager int, managers []int) (*Report, *PlaneSweep, error) {
	if len(managers) == 0 {
		managers = []int{1, 2, 4, 8, 16, 32}
	}
	if faultsPerManager <= 0 {
		// Big enough that a cell's window (~100ms+) averages over GC cycles;
		// short windows are bimodal depending on whether a cycle lands inside.
		faultsPerManager = 32768
	}
	// Wall-clock scaling needs a processor per manager to mean anything:
	// raise GOMAXPROCS to the widest cell for the duration of the sweep
	// (restored after) and record what the host can actually back with
	// hardware. On a host with fewer CPUs than managers the wide cells
	// measure scheduling overhead, not parallel speedup — say so.
	maxMgrs := 0
	for _, n := range managers {
		if n > maxMgrs {
			maxMgrs = n
		}
	}
	if runtime.GOMAXPROCS(0) < maxMgrs {
		prev := runtime.GOMAXPROCS(maxMgrs)
		defer runtime.GOMAXPROCS(prev)
	}
	sweep := NewPlaneSweep(faultsPerManager,
		fmt.Sprintf("scale sweep: managers x scheduler, equal-work cells, best of %d runs per cell", scaleReps))
	rep := &Report{Table: "scale"}
	b := &bytes.Buffer{}
	header(b, "Delivery-Plane Wall-Clock Scaling (not in paper; batching + sharding)")
	fmt.Fprintf(b, "gomaxprocs=%d num_cpu=%d\n", sweep.GoMaxProcs, sweep.NumCPU)
	if sweep.NumCPU < maxMgrs {
		fmt.Fprintf(b, "warning: host has %d CPUs for up to %d managers; wide cells time-slice rather than run in parallel\n",
			sweep.NumCPU, maxMgrs)
	}
	// bestCell runs one cell scaleReps times and keeps the best run, the
	// usual minimum-cost estimator for wall clock on a shared host. Every
	// cell drives the same total fault count (4x the per-manager base), so
	// cells differ only in how the work is divided among managers, not in
	// the size of the combined working set. Without this, narrow cells
	// measure the cache locality of a small footprint rather than the
	// delivery plane, and the scaling curve is dominated by LLC fit.
	bestCell := func(sched string, n, drivers int) (*PlaneResult, error) {
		fpm := max(4*faultsPerManager/n, 1024)
		var r *PlaneResult
		for try := 0; try < scaleReps; try++ {
			one, err := PlaneThroughput(PlaneOptions{Scheduler: sched, Managers: n, FaultsPerManager: fpm, Drivers: drivers})
			if err != nil {
				return nil, err
			}
			rep.Events += one.Faults
			if r == nil || one.WallFaultsPerSec > r.WallFaultsPerSec {
				r = one
			}
		}
		sweep.Runs = append(sweep.Runs, *r)
		return r, nil
	}
	fmt.Fprintf(b, "%-12s %9s %10s %16s %16s %13s %9s %9s\n",
		"Scheduler", "Managers", "Faults", "Model faults/s", "Wall faults/s", "Allocs/fault", "p50(us)", "p99(us)")
	wall := map[string]float64{} // "sched/n" -> wall faults/s
	model := map[string]float64{}
	p99 := map[string]float64{}
	for _, sched := range []string{"serial", "concurrent"} {
		for _, n := range managers {
			r, err := bestCell(sched, n, 1)
			if err != nil {
				return nil, nil, err
			}
			fmt.Fprintf(b, "%-12s %9d %10d %16.0f %16.0f %13.3f %9.2f %9.2f\n",
				r.Scheduler, r.Managers, r.Faults,
				r.ModelFaultsPerSec, r.WallFaultsPerSec, r.AllocsPerFault,
				r.P50FaultUS, r.P99FaultUS)
			key := fmt.Sprintf("%s/%d", sched, n)
			wall[key] = r.WallFaultsPerSec
			model[key] = r.ModelFaultsPerSec
			p99[key] = r.P99FaultUS
		}
	}
	// Vectored-delivery cells: vecDrivers faulting goroutines per manager,
	// so faults genuinely queue behind each lane and multi-fault runs form.
	// Concurrent only — the serial scheduler never delivers a run longer
	// than one.
	fmt.Fprintf(b, "\nVectored delivery (%d drivers per manager, concurrent)\n", vecDrivers)
	fmt.Fprintf(b, "%9s %10s %12s %16s %16s %13s %9s %9s\n",
		"Managers", "Faults", "VecBatches", "Model faults/s", "Wall faults/s", "Allocs/fault", "p50(us)", "p99(us)")
	vecMono, prevV := true, 0.0
	for _, n := range managers {
		r, err := bestCell("concurrent", n, vecDrivers)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(b, "%9d %10d %12d %16.0f %16.0f %13.3f %9.2f %9.2f\n",
			r.Managers, r.Faults, r.VectoredBatches,
			r.ModelFaultsPerSec, r.WallFaultsPerSec, r.AllocsPerFault,
			r.P50FaultUS, r.P99FaultUS)
		if r.WallFaultsPerSec < prevV {
			vecMono = false
		}
		prevV = r.WallFaultsPerSec
	}
	fmt.Fprintf(b, "vectored wall faults/s non-decreasing across manager counts: %v\n", vecMono)

	// Monotonicity over the concurrent row, 1 through 16 managers:
	// the lock-free plane should never get slower as lanes are added.
	prevW, mono := 0.0, true
	for _, n := range managers {
		if n > 16 {
			break
		}
		w, ok := wall[fmt.Sprintf("concurrent/%d", n)]
		if !ok {
			continue
		}
		if w < prevW {
			mono = false
		}
		prevW = w
	}
	fmt.Fprintf(b, "\nconcurrent wall faults/s non-decreasing 1..16 managers: %v\n", mono)
	// The 8->16 step is where lane sharding usually starts to pay for its
	// coordination; report how throughput and tail latency move across it.
	if w8, w16 := wall["concurrent/8"], wall["concurrent/16"]; w8 > 0 && w16 > 0 {
		fmt.Fprintf(b, "concurrent 8->16 managers: wall faults/s %+.1f%%, p99 latency %.2fus -> %.2fus\n",
			100*(w16-w8)/w8, p99["concurrent/8"], p99["concurrent/16"])
	}
	if s, c := model["concurrent/1"], model["concurrent/4"]; s > 0 && c > 0 {
		sweep.Scaling1To4 = c / s
	}
	speedup := 0.0
	if s, c := wall["serial/4"], wall["concurrent/4"]; s > 0 {
		speedup = c / s
		sweep.WallSpeedup4Mgr = speedup
	}
	fmt.Fprintf(b, "\nwall speedup, 4 managers, concurrent vs serial: %.2fx (target >= 1.5x)\n", speedup)
	rep.OK = speedup >= 1.5
	rep.Output = b.Bytes()
	rep.Measures = append(rep.Measures, Measure{
		Name:     "scale_wall_speedup_4mgr_concurrent_vs_serial",
		Measured: speedup,
		Unit:     "x",
	})
	return rep, sweep, nil
}
