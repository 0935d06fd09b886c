package main

import (
	"math"
	"sort"
)

// A metric is labelled host (what the Go process spends) or sim (what the
// modelled DECstation spends). Sources: S is a span around a benchmark call
// or an interface wrapper in a traced cell, C an exact count from a public
// Stats(), P a probe loop timing one public function on warm state.

// bound is how far a lower-is-better metric may rise before -compare calls
// it worse: the larger of rel × baseline and abs.
type bound struct{ rel, abs float64 }

// metricDef describes one named metric.
type metricDef struct {
	name string
	unit string
	// gate is non-nil for the eight metrics -compare applies a bound to.
	gate *bound
	// concurrentGate replaces gate on the concurrent workload, whose
	// simulated clock agrees run to run only to rounding.
	concurrentGate *bound
}

// gated lists the end-to-end metrics in the order they are printed. All are
// lower-is-better.
var gated = []metricDef{
	{name: "host_ns_per_op", unit: "ns", gate: &bound{rel: 0.10}},
	{name: "host_allocs_per_op", unit: "allocs", gate: &bound{rel: 0.05, abs: 0.01}},
	{name: "host_heap_mb", unit: "MB", gate: &bound{rel: 0.10}},
	{name: "sim_us_per_op", unit: "sim_us", gate: &bound{}, concurrentGate: &bound{rel: 1e-4}},
	{name: "sim_faults_per_op", unit: "ratio", gate: &bound{}},
	{name: "paper_err_pct", unit: "%", gate: &bound{}},
	{name: "failed_ops", unit: "fraction", gate: &bound{}},
	{name: "setup_s", unit: "s", gate: &bound{rel: 0.25, abs: 0.05}},
}

// driverEndToEnd is BENCHMARK.json's end_to_end list: the gated metrics
// that exist on every workload and are never 0. The other gated metrics are
// listed there under per_layer; -compare still applies their bounds.
var driverEndToEnd = []string{"host_ns_per_op", "host_heap_mb", "setup_s"}

// layered lists the per-layer metrics in the order they are printed.
var layered = []metricDef{
	{name: "kernel.access_ns", unit: "ns"},
	{name: "kernel.self_ns", unit: "ns"},
	{name: "kernel.delete_ns_per_page", unit: "ns"},
	{name: "kernel.resident_hit_ns", unit: "ns"},
	{name: "kernel.migrate1_ns", unit: "ns"},
	{name: "kernel.migrate64_ns_per_page", unit: "ns"},
	{name: "kernel.modify_flags_ns", unit: "ns"},
	{name: "kernel.get_attr_ns", unit: "ns"},
	{name: "kernel.tlb_hit_ratio", unit: "ratio"},
	{name: "kernel.hash_hit_ratio", unit: "ratio"},
	{name: "kernel.hash_spills_per_kop", unit: "1/kop"},
	{name: "kernel.migrate_calls_per_op", unit: "ratio"},
	{name: "kernel.migrated_pages_per_call", unit: "ratio"},
	{name: "kernel.modify_calls_per_op", unit: "ratio"},
	{name: "kernel.getattr_calls_per_op", unit: "ratio"},
	{name: "kernel.extent_promotions_per_op", unit: "ratio"},
	{name: "kernel.vectored_batches", unit: "count"},
	{name: "plane.ring_ns", unit: "ns"},
	{name: "plane.mailbox_ns", unit: "ns"},
	{name: "manager.handle_ns", unit: "ns"},
	{name: "manager.self_ns", unit: "ns"},
	{name: "manager.policy_ns", unit: "ns"},
	{name: "manager.victim_calls_per_op", unit: "ratio"},
	{name: "manager.fills_per_op", unit: "ratio"},
	{name: "manager.writebacks_per_op", unit: "ratio"},
	{name: "manager.reclaims_per_op", unit: "ratio"},
	{name: "manager.fast_refaults_per_op", unit: "ratio"},
	{name: "spcm.request_ns", unit: "ns"},
	{name: "spcm.request_calls_per_op", unit: "ratio"},
	{name: "spcm.frames_per_request", unit: "ratio"},
	{name: "spcm.return_ns_per_frame", unit: "ns"},
	{name: "spcm.refused", unit: "count"},
	{name: "phys.alloc_ns", unit: "ns"},
	{name: "phys.alloc_run_ns", unit: "ns"},
	{name: "phys.framecache_pop_ns", unit: "ns"},
	{name: "storage.fill_ns", unit: "ns"},
	{name: "storage.writeback_ns", unit: "ns"},
	{name: "storage.read_ns", unit: "ns"},
	{name: "storage.write_ns", unit: "ns"},
	{name: "sim.event_ns", unit: "ns"},
	{name: "sim.event_sharded_ns", unit: "ns"},
	{name: "uio.read4k_ns", unit: "ns"},
	{name: "uio.write4k_ns", unit: "ns"},
	{name: "ultrix.fault_ns", unit: "ns"},
	{name: "experiments.table1_ms", unit: "ms"},
	{name: "experiments.tables23_ms", unit: "ms"},
	{name: "experiments.table4_ms", unit: "ms"},
	{name: "db.txn_ns", unit: "ns"},
	{name: "workload.event_ns", unit: "ns"},
	{name: "bench.epochs", unit: "count"},
	{name: "bench.raw_ns_per_op", unit: "ns"},
	{name: "bench.raw_p50_ns", unit: "ns"},
	{name: "bench.raw_p90_ns", unit: "ns"},
	{name: "bench.calib_us", unit: "us"},
	{name: "bench.traced_ns_per_op", unit: "ns"},
	{name: "bench.unexplained_ns", unit: "ns"},
	{name: "bench.trace_overhead_pct", unit: "%"},
}

// metricByName indexes both lists.
var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(gated)+len(layered))
	for _, d := range gated {
		m[d.name] = d
	}
	for _, d := range layered {
		m[d.name] = d
	}
	return m
}()

// driverPerLayer is BENCHMARK.json's per_layer list: every metric that is
// not in driverEndToEnd.
func driverPerLayer() []string {
	e2e := make(map[string]bool, len(driverEndToEnd))
	for _, n := range driverEndToEnd {
		e2e[n] = true
	}
	var out []string
	for _, d := range gated {
		if !e2e[d.name] {
			out = append(out, d.name)
		}
	}
	for _, d := range layered {
		out = append(out, d.name)
	}
	return out
}

// Metric is one reported value. Lo and Hi, when set, are the first and third
// quartile of the N per-cell readings the value summarises: the scatter
// -compare holds a shift against before calling it resolved.
type Metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Lo    *float64 `json:"lo,omitempty"`
	Hi    *float64 `json:"hi,omitempty"`
	N     int      `json:"n,omitempty"`
}

// metrics maps metric name to value for one workload. A metric that is not
// defined on the workload is absent, not 0.
type metrics map[string]Metric

func (m metrics) set(name string, v float64) {
	m[name] = Metric{Value: v, Unit: metricByName[name].unit}
}

// setOver records v together with the quartiles of the per-cell readings
// behind it.
func (m metrics) setOver(name string, v float64, perCell []float64) {
	lo, hi := quantile(perCell, 0.25), quantile(perCell, 0.75)
	m[name] = Metric{Value: v, Unit: metricByName[name].unit, Lo: &lo, Hi: &hi, N: len(perCell)}
}

// quantile returns the q-quantile of samples by linear interpolation
// between order statistics; it does not modify samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
