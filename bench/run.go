package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// A run is Rounds rounds; each round visits every requested workload once,
// so a burst of neighbour noise cannot cover most of one workload's
// samples. One visit is a cell: boot, one discarded warm-up epoch (together
// setup_s), then fixed-size epochs on the warm system until the cell's
// share of the time budget is spent. With tracing on, the even rounds stay
// untraced and the odd rounds boot the same system behind the span
// wrappers; end-to-end metrics only ever come from untraced cells.

// quietQuantile is the quantile over epochs a host timing is read at. Noise
// on a shared host only ever adds time.
const quietQuantile = 0.10

// cell is the outcome of one boot of one workload.
type cell struct {
	traced    bool
	setup     float64       // calibrated seconds
	nsPerOp   []float64     // wall, one per epoch
	calib     []float64     // the reference loop's wall ns around each epoch
	ops       int64         // attempted, all epochs
	wall      time.Duration // timed, all epochs
	failed    int64
	mallocs   uint64
	heapInuse uint64 // after a GC at the end of the last epoch, system alive

	// Over the first SimEpochs epochs only, so the values do not depend on
	// how many epochs the time budget allowed.
	simOps   int64
	simTime  time.Duration
	count    counts
	paperErr float64

	tableMS     [3][]float64 // tables: per-task wall per epoch
	tableEvents [3]int64     // tables: per-task events of one pass
	tr          *tracer      // nil for an untraced cell
}

// runCell boots name and runs epochs for budget, at least sz.SimEpochs.
// keepSpans makes a traced cell store its spans for the Chrome-trace file.
func runCell(name string, seed uint64, sz sizes, cal *calibrator, budget time.Duration, traced, keepSpans bool) (*cell, error) {
	c := &cell{}
	if traced {
		c.tr = newTracer(keepSpans)
	}
	runtime.GC()
	var sys system
	var err error
	var warm epochResult
	var setup time.Duration
	ref := cal.around(func() {
		start := time.Now()
		if sys, err = boot(name, seed, sz, c.tr); err == nil {
			warm = sys.epoch()
		}
		setup = time.Since(start)
	})
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", name, err)
	}
	defer sys.close()
	c.setup = calibrated(setup.Seconds(), ref)
	c.failed += warm.failed + sys.reset()
	if c.tr != nil {
		c.tr.reset()
	}

	// The collector runs between epochs, untimed, and is held off inside
	// them: the hot paths allocate next to nothing, so a mid-epoch cycle
	// could only scan the simulated machine and distort the wall time.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	began := time.Now()
	for n := 0; n < sz.SimEpochs || time.Since(began) < budget; n++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		var e epochResult
		ref := cal.around(func() { e = sys.epoch() })
		runtime.ReadMemStats(&ms)
		c.mallocs += ms.Mallocs - mallocs
		c.ops += e.ops
		c.wall += e.wall
		c.failed += e.failed + sys.reset()
		c.nsPerOp = append(c.nsPerOp, float64(e.wall.Nanoseconds())/float64(e.ops))
		c.calib = append(c.calib, ref)
		if n < sz.SimEpochs {
			c.simOps += e.ops
			c.simTime += e.simTime
			c.count.add(e.count)
			c.paperErr = e.paperErr
			c.tableEvents = e.tableEvents
		}
		for i, w := range e.tableWall {
			if w > 0 {
				c.tableMS[i] = append(c.tableMS[i], float64(w.Microseconds())/1e3)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	c.heapInuse = ms.HeapInuse
	c.failed += sys.check()
	return c, nil
}

// WorkloadResult is everything one workload reports.
type WorkloadResult struct {
	Name string `json:"name"`
	// Unmeasurable marks a workload the host has too few CPUs to time;
	// -compare skips it.
	Unmeasurable bool    `json:"unmeasurable,omitempty"`
	Attempted    int64   `json:"attempted"`
	Failed       int64   `json:"failed"`
	Correct      bool    `json:"correct"`
	Metrics      metrics `json:"metrics"`
	// Budget is the traced cells' self-time per op by layer; the rows sum
	// to the traced ns/op.
	Budget []BudgetRow `json:"budget,omitempty"`

	tracers []*tracer
}

// BudgetRow is one layer's share of a traced op.
type BudgetRow struct {
	Layer  string  `json:"layer"`
	SelfNS float64 `json:"self_ns"`
}

// Result is the result file: the honesty stamp plus one entry per workload.
type Result struct {
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Commit     string           `json:"commit"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// runAll runs the named workloads round-robin and aggregates their cells.
// With keepSpans, each workload's first traced cell stores its spans.
func runAll(names []string, seed uint64, sz sizes, seconds float64, trace, keepSpans bool) (*Result, error) {
	res := &Result{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Seconds:    seconds,
		Traced:     trace,
	}
	budget := time.Duration(seconds / float64(sz.Rounds) * float64(time.Second))
	cal := newCalibrator()
	cells := make(map[string][]*cell, len(names))
	for round := 0; round < sz.Rounds; round++ {
		for _, name := range names {
			// tables has no seam to wrap: its per-layer numbers are the
			// harness's own per-task wall times, which any cell records.
			traced := trace && round%2 == 1 && name != "tables"
			c, err := runCell(name, seed, sz, cal, budget, traced, keepSpans && round == 1)
			if err != nil {
				return nil, err
			}
			cells[name] = append(cells[name], c)
		}
	}
	var probes metrics
	if trace {
		var err error
		if probes, err = runProbes(sz); err != nil {
			return nil, err
		}
	}
	for _, name := range names {
		w := aggregate(name, cells[name])
		for k, v := range probes {
			w.Metrics[k] = v
		}
		if name == "concurrent" && res.NumCPU < concurrentMgrs {
			w.Unmeasurable = true
		}
		res.Workloads = append(res.Workloads, w)
	}
	return res, nil
}

// aggregate folds one workload's cells into its metrics.
func aggregate(name string, cells []*cell) WorkloadResult {
	w := WorkloadResult{Name: name, Metrics: metrics{}}
	var plain, traced []*cell
	for _, c := range cells {
		w.Failed += c.failed
		w.Attempted += c.ops
		if c.tr != nil {
			traced = append(traced, c)
			w.tracers = append(w.tracers, c.tr)
		} else {
			plain = append(plain, c)
		}
	}
	m := w.Metrics

	// End to end, from the untraced cells. Noise only ever adds time, to
	// the epochs and to the reference loop alike, so both are read at their
	// tenth percentile before one is divided by the other.
	quiet := func(ns, calib []float64) float64 {
		return calibrated(quantile(ns, quietQuantile), quantile(calib, quietQuantile))
	}
	var ns, cellNS, calib, setup, heap []float64
	var ops int64
	var mallocs uint64
	for _, c := range plain {
		ns = append(ns, c.nsPerOp...)
		calib = append(calib, c.calib...)
		cellNS = append(cellNS, quiet(c.nsPerOp, c.calib))
		setup = append(setup, c.setup)
		heap = append(heap, float64(c.heapInuse)/(1<<20))
		ops += c.ops
		mallocs += c.mallocs
	}
	rawNS := quantile(ns, quietQuantile)
	m.setOver("host_ns_per_op", quiet(ns, calib), cellNS)
	m.set("host_allocs_per_op", float64(mallocs)/float64(ops))
	m.setOver("host_heap_mb", quantile(heap, 0.5), heap)
	m.setOver("setup_s", quantile(setup, 0.5), setup)
	m.set("bench.epochs", float64(len(ns)))
	m.set("bench.raw_ns_per_op", rawNS)
	m.set("bench.raw_p50_ns", quantile(ns, 0.50))
	m.set("bench.raw_p90_ns", quantile(ns, 0.90))
	m.set("bench.calib_us", quantile(calib, quietQuantile)/1e3)

	// Simulated metrics and C-counts cover the same fixed epochs in every
	// cell, so on the serial scheduler every cell must agree exactly.
	first := plain[0]
	for _, c := range cells[1:] {
		got := c.count
		if name == "extent" {
			// Known exception: hash spills on the superpage path follow Go
			// map iteration order inside the kernel and vary boot to boot.
			got[cHashSpills] = first.count[cHashSpills]
		}
		if name != "concurrent" && (c.simTime != first.simTime || got != first.count || c.paperErr != first.paperErr) {
			fmt.Fprintf(os.Stderr, "bench: %s: simulated metrics differ between two boots at one seed\n", name)
			w.Failed++
		}
	}
	if name == "tables" {
		m.set("paper_err_pct", first.paperErr)
		tablesLayers(m, plain)
	} else {
		simLayers(m, first)
	}
	if len(traced) > 0 {
		w.Budget = spanLayers(m, traced, rawNS)
	}
	m.set("failed_ops", float64(w.Failed)/float64(w.Attempted))
	w.Correct = w.Failed == 0
	return w
}

// simLayers sets the simulated metrics and the C-count ratios.
func simLayers(m metrics, c *cell) {
	n := c.count
	ops := c.simOps
	m.set("sim_us_per_op", float64(c.simTime.Nanoseconds())/1e3/float64(ops))
	m.set("sim_faults_per_op", ratio(n[cFaults], ops))
	m.set("kernel.tlb_hit_ratio", ratio(n[cTLBHits], n[cTLBHits]+n[cTLBMisses]))
	m.set("kernel.hash_hit_ratio", ratio(n[cHashHits], n[cHashHits]+n[cHashMisses]))
	m.set("kernel.hash_spills_per_kop", 1e3*ratio(n[cHashSpills], ops))
	m.set("kernel.migrate_calls_per_op", ratio(n[cMigrateCalls], ops))
	m.set("kernel.migrated_pages_per_call", ratio(n[cMigratedPages], n[cMigrateCalls]))
	m.set("kernel.modify_calls_per_op", ratio(n[cModifyCalls], ops))
	m.set("kernel.getattr_calls_per_op", ratio(n[cGetAttrCalls], ops))
	m.set("kernel.extent_promotions_per_op", ratio(n[cExtentPromotions], ops))
	m.set("kernel.vectored_batches", float64(n[cVectoredBatches]))
	m.set("manager.fills_per_op", ratio(n[cFills], ops))
	m.set("manager.writebacks_per_op", ratio(n[cWritebacks], ops))
	m.set("manager.reclaims_per_op", ratio(n[cReclaims], ops))
	m.set("manager.fast_refaults_per_op", ratio(n[cFastRefaults], ops))
	m.set("spcm.refused", float64(n[cRefused]))
}

// tablesLayers sets the tables workload's per-layer metrics from the
// harness's own per-task wall times.
func tablesLayers(m metrics, cells []*cell) {
	names := [3]string{"experiments.table1_ms", "experiments.tables23_ms", "experiments.table4_ms"}
	var ms [3][]float64
	for _, c := range cells {
		for i := range ms {
			ms[i] = append(ms[i], c.tableMS[i]...)
		}
	}
	for i, n := range names {
		if len(ms[i]) > 0 {
			m.set(n, quantile(ms[i], quietQuantile))
		}
	}
	first := cells[0]
	if ev := first.tableEvents[1]; ev > 0 {
		m.set("workload.event_ns", quantile(ms[1], quietQuantile)*1e6/float64(ev))
	}
	if txns := tablesTxns(); txns > 0 && len(ms[2]) > 0 {
		m.set("db.txn_ns", quantile(ms[2], quietQuantile)*1e6/float64(txns))
	}
}

// spanLayers sets the S metrics from the traced cells' spans and returns the
// budget, whose last row is the remainder: traced ns/op minus the sum of the
// self times.
func spanLayers(m metrics, traced []*cell, untracedNS float64) []BudgetRow {
	var agg [numSpanNames]spanAgg
	var ops int64
	var wall time.Duration
	var ns []float64
	for _, c := range traced {
		ops += c.ops
		wall += c.wall
		ns = append(ns, c.nsPerOp...)
		for name := spanName(0); name < numSpanNames; name++ {
			a := c.tr.sum(name)
			agg[name].count += a.count
			agg[name].total += a.total
			agg[name].self += a.self
			agg[name].units += a.units
		}
	}
	// Spans of parallel drivers overlap in wall time. Dividing by the driver
	// count turns their summed time into a share of the wall ns/op, so the
	// budget's rows add up to the traced ns/op on every workload.
	drivers := float64(len(traced[0].tr.tracks))
	perOp := func(ns int64) float64 { return float64(ns) / float64(ops) / drivers }
	perCall := func(a spanAgg) float64 {
		if a.count == 0 {
			return 0
		}
		return float64(a.total) / float64(a.count)
	}
	perUnit := func(a spanAgg) float64 {
		if a.units == 0 {
			return 0
		}
		return float64(a.total) / float64(a.units)
	}
	m.set("kernel.access_ns", perOp(agg[spanAccess].total))
	m.set("kernel.self_ns", perOp(agg[spanAccess].self))
	m.set("kernel.delete_ns_per_page", perUnit(agg[spanDelete]))
	m.set("manager.handle_ns", perOp(agg[spanHandle].total))
	m.set("manager.self_ns", perOp(agg[spanHandle].self+agg[spanLaneIdle].self))
	m.set("manager.policy_ns", perOp(agg[spanVictim].total))
	m.set("manager.victim_calls_per_op", ratio(agg[spanVictim].count, ops))
	m.set("spcm.request_ns", perCall(agg[spanRequest]))
	m.set("spcm.request_calls_per_op", ratio(agg[spanRequest].count, ops))
	m.set("spcm.frames_per_request", ratio(agg[spanRequest].units, agg[spanRequest].count))
	m.set("spcm.return_ns_per_frame", perUnit(agg[spanReturn]))
	m.set("storage.fill_ns", perCall(agg[spanFill]))
	m.set("storage.writeback_ns", perCall(agg[spanWriteback]))

	// Span times are sums over every traced epoch, so the budget is held
	// against the mean traced ns/op. Self times of the spans under
	// kernel.access telescope to its total; what is left is the driver loop
	// and the clock reads around it.
	tracedNS := float64(wall.Nanoseconds()) / float64(ops)
	unexplained := tracedNS - perOp(agg[spanAccess].total)
	m.set("bench.traced_ns_per_op", tracedNS)
	m.set("bench.unexplained_ns", unexplained)
	m.set("bench.trace_overhead_pct", 100*(quantile(ns, quietQuantile)/untracedNS-1))
	return []BudgetRow{
		{"kernel (access - children)", perOp(agg[spanAccess].self)},
		{"manager (handle, lane idle - children)", perOp(agg[spanHandle].self + agg[spanLaneIdle].self)},
		{"manager.policy (Victim)", perOp(agg[spanVictim].self)},
		{"spcm (request)", perOp(agg[spanRequest].self)},
		{"storage (fill, writeback)", perOp(agg[spanFill].self + agg[spanWriteback].self)},
		{"unexplained (driver loop, clock reads)", unexplained},
	}
}

// driverLine is the last line of standard output in the driver's format.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// driverMetrics picks the metrics BENCHMARK.json promises for this trace
// mode. A per-layer metric that is idle or not defined on the workload
// reads 0 there; the result file leaves it out instead.
func driverMetrics(w WorkloadResult, trace bool) driverLine {
	names := driverEndToEnd
	if trace {
		names = driverPerLayer()
	}
	line := driverLine{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]Metric{}}
	for _, n := range names {
		v, ok := w.Metrics[n]
		if !ok || math.IsNaN(v.Value) {
			v = Metric{Unit: metricByName[n].unit}
		}
		line.Metrics[n] = Metric{Value: v.Value, Unit: v.Unit}
	}
	return line
}
