package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// testSizes keeps the whole self-test under a few seconds; tables cannot be
// shrunk, so it gets one epoch per cell.
var testSizes = sizes{
	FillPages:     512,
	ReplaceRefs:   4096,
	ReplacePages:  256,
	ReplaceFrames: 64,
	SimEpochs:     1,
	Rounds:        2,
	ProbeBatch:    32,
	ProbeReps:     3,
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEmitsEveryBenchmarkJSONName runs all five workloads once, traced, and
// checks the driver line carries exactly the names BENCHMARK.json lists.
// A second untraced run of the fault workloads must repeat every simulated
// metric and C-count.
func TestEmitsEveryBenchmarkJSONName(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var e2e, layer, wls []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
		if metricByName[m.Name].unit != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in metrics.go", m.Name, m.Unit, metricByName[m.Name].unit)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
		if metricByName[m.Name].unit != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in metrics.go", m.Name, m.Unit, metricByName[m.Name].unit)
		}
	}
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	for _, n := range append(append(append([]string{}, e2e...), layer...), wls...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
	}
	if !reflect.DeepEqual(e2e, driverEndToEnd) {
		t.Errorf("end_to_end = %v, want %v", e2e, driverEndToEnd)
	}
	if !reflect.DeepEqual(layer, driverPerLayer()) {
		t.Errorf("per_layer differs from metrics.go:\n got %v\nwant %v", layer, driverPerLayer())
	}
	if !reflect.DeepEqual(wls, workloadNames) {
		t.Errorf("workloads = %v, want %v", wls, workloadNames)
	}

	first, err := runAll(workloadNames, defaultSeed, testSizes, 0.01, true, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range first.Workloads {
		if !w.Correct || w.Failed != 0 || w.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, w.Correct, w.Attempted, w.Failed)
		}
		line := driverMetrics(w, false)
		if len(line.Metrics) != len(e2e) {
			t.Errorf("%s: %d end-to-end metrics on the driver line, want %d", w.Name, len(line.Metrics), len(e2e))
		}
		for _, n := range e2e {
			if m, ok := line.Metrics[n]; !ok || !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, n, m.Value)
			}
		}
		line = driverMetrics(w, true)
		if len(line.Metrics) != len(layer) {
			t.Errorf("%s: %d per-layer metrics on the driver line, want %d", w.Name, len(line.Metrics), len(layer))
		}
		for _, n := range layer {
			if m, ok := line.Metrics[n]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: per-layer metric %s missing or not finite", w.Name, n)
			}
		}
		if w.Name == "tables" {
			continue
		}
		// The budget's rows add up to the traced ns/op.
		var sum float64
		for _, r := range w.Budget {
			sum += r.SelfNS
		}
		traced := w.Metrics["bench.traced_ns_per_op"].Value
		if len(w.Budget) == 0 || math.Abs(sum-traced) > 1e-6*traced {
			t.Errorf("%s: budget sums to %.3f ns, traced ns/op is %.3f", w.Name, sum, traced)
		}
	}

	// Idle-layer predictions.
	byName := map[string]metrics{}
	for _, w := range first.Workloads {
		byName[w.Name] = w.Metrics
	}
	zero := func(wl, m string, want bool) {
		t.Helper()
		if got := byName[wl][m].Value == 0; got != want {
			t.Errorf("%s %s = %v; want zero: %v", wl, m, byName[wl][m].Value, want)
		}
	}
	zero("replace", "spcm.request_calls_per_op", true)
	zero("replace", "storage.fill_ns", false)
	zero("replace", "manager.victim_calls_per_op", false)
	zero("fill", "manager.victim_calls_per_op", true)
	zero("fill", "spcm.request_calls_per_op", false)
	zero("fill", "kernel.extent_promotions_per_op", true)
	zero("concurrent", "kernel.extent_promotions_per_op", true)
	zero("extent", "kernel.extent_promotions_per_op", false)

	faults := workloadNames[:4]
	second, err := runAll(faults, defaultSeed, testSizes, 0.01, false, false)
	if err != nil {
		t.Fatal(err)
	}
	exact := []string{"sim_us_per_op", "sim_faults_per_op"}
	for _, d := range layered {
		if strings.HasSuffix(d.name, "_ns") || strings.HasSuffix(d.name, "_ns_per_page") ||
			strings.HasSuffix(d.name, "_ns_per_frame") || strings.HasSuffix(d.name, "_ms") ||
			strings.HasPrefix(d.name, "bench.") || strings.HasPrefix(d.name, "spcm.") ||
			d.name == "manager.victim_calls_per_op" {
			continue // host times, and counts taken from spans
		}
		exact = append(exact, d.name)
	}
	for i, w := range second.Workloads {
		for _, n := range exact {
			a, b := first.Workloads[i].Metrics[n].Value, w.Metrics[n].Value
			switch {
			case w.Name == "extent" && n == "kernel.hash_spills_per_kop":
				// Follows map iteration order inside the kernel.
			case w.Name == "concurrent":
				// Which driver touches a shared structure first is not
				// fixed; the simulated clock agrees to rounding (1e-4 at
				// full size, looser on these tiny epochs).
				if strings.HasPrefix(n, "sim_") && math.Abs(a-b) > 1e-2*math.Abs(a) {
					t.Errorf("concurrent: %s = %v then %v", n, a, b)
				}
			case a != b:
				t.Errorf("%s: %s = %v then %v at one seed", w.Name, n, a, b)
			}
		}
	}

	// The kept spans serialise as Chrome-trace JSON.
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, first.Workloads); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	children := 0
	for _, e := range events {
		if e.Args["parent"].(float64) >= 0 {
			children++
		}
	}
	if len(events) == 0 || children == 0 {
		t.Errorf("chrome trace has %d events, %d with a parent", len(events), children)
	}
}

func TestSeedChangesReplaceInputs(t *testing.T) {
	r1, w1 := replaceRefs(1, testSizes)
	r1b, w1b := replaceRefs(1, testSizes)
	r2, w2 := replaceRefs(2, testSizes)
	if !reflect.DeepEqual(r1, r1b) || !reflect.DeepEqual(w1, w1b) {
		t.Error("one seed gave two reference strings")
	}
	if reflect.DeepEqual(r1, r2) || reflect.DeepEqual(w1, w2) {
		t.Error("two seeds gave one reference string")
	}
}

func TestCompareVerdicts(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	mk := func(ns, p10, p90, sim float64) *Result {
		m := metrics{
			"host_ns_per_op": {Value: ns, Unit: "ns", Lo: f(p10), Hi: f(p90), N: 5},
			"sim_us_per_op":  {Value: sim, Unit: "sim_us"},
		}
		return &Result{NumCPU: 2, Workloads: []WorkloadResult{{Name: "fill", Metrics: m}}}
	}
	base := mk(1000, 990, 1010, 400)
	cases := []struct {
		name      string
		next      *Result
		ns, simUS string
	}{
		{"+15%", mk(1150, 1140, 1160, 400), verdictWorse, verdictSame},
		{"+5%", mk(1050, 1040, 1060, 400), verdictSame, verdictSame},
		{"-15%", mk(850, 840, 860, 400), verdictBetter, verdictSame},
		{"wide spread", mk(1080, 900, 1300, 400), verdictUnresolved, verdictSame},
		{"sim moved", mk(1000, 990, 1010, 400.001), verdictSame, verdictWorse},
		{"sim improved", mk(1000, 990, 1010, 399), verdictSame, verdictBetter},
	}
	for _, c := range cases {
		got := judge(metricByName["host_ns_per_op"], "fill", base.Workloads[0].Metrics["host_ns_per_op"], c.next.Workloads[0].Metrics["host_ns_per_op"])
		if got != c.ns {
			t.Errorf("%s: host_ns_per_op %s, want %s", c.name, got, c.ns)
		}
		got = judge(metricByName["sim_us_per_op"], "fill", base.Workloads[0].Metrics["sim_us_per_op"], c.next.Workloads[0].Metrics["sim_us_per_op"])
		if got != c.simUS {
			t.Errorf("%s: sim_us_per_op %s, want %s", c.name, got, c.simUS)
		}
	}
	var out bytes.Buffer
	if worse, _ := compareResults(&out, base, cases[0].next); worse != 1 {
		t.Errorf("+15%% result: %d worse, want 1\n%s", worse, out.String())
	}
	// concurrent's simulated clock may move by rounding only.
	if v := judge(metricByName["sim_us_per_op"], "concurrent", Metric{Value: 408.77}, Metric{Value: 408.78}); v != verdictSame {
		t.Errorf("concurrent sim within 0.01%%: %s", v)
	}
	// An unmeasurable workload is skipped.
	base.Workloads[0].Unmeasurable = true
	if worse, unresolved := compareResults(&out, base, cases[0].next); worse+unresolved != 0 {
		t.Errorf("unmeasurable workload was judged")
	}
}
