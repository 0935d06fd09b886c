package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// -compare applies the gated metrics' bounds per (metric, workload) to two
// result files, the first being the baseline.

const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// allowed is how far def may rise above base on workload before it counts
// as worse.
func allowed(def metricDef, workload string, base float64) float64 {
	g := def.gate
	if workload == "concurrent" && def.concurrentGate != nil {
		g = def.concurrentGate
	}
	return math.Max(g.rel*math.Abs(base), g.abs)
}

// spread is the inter-quartile width of a metric's per-cell readings, 0 for
// a single reading.
func spread(m Metric) float64 {
	if m.Lo == nil || m.Hi == nil {
		return 0
	}
	return *m.Hi - *m.Lo
}

// judge compares one lower-is-better metric. When either side's own cells
// scatter more widely than the bound, a shift inside that scatter cannot be
// told from noise: the verdict is unresolved unless the two sides' quartile
// ranges do not overlap.
func judge(def metricDef, workload string, base, next Metric) string {
	limit := allowed(def, workload, base.Value)
	if math.Max(spread(base), spread(next)) > limit {
		switch {
		case *next.Lo > *base.Hi && next.Value-base.Value > limit:
			return verdictWorse
		case *next.Hi < *base.Lo:
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch d := next.Value - base.Value; {
	case d > limit:
		return verdictWorse
	case d < -limit || (limit == 0 && d < 0):
		return verdictBetter
	}
	return verdictSame
}

// compareResults prints one row per gated (metric, workload) cell and
// returns how many were worse and how many unresolved.
func compareResults(w io.Writer, base, next *Result) (worse, unresolved int) {
	byName := make(map[string]WorkloadResult, len(next.Workloads))
	for _, wl := range next.Workloads {
		byName[wl.Name] = wl
	}
	fmt.Fprintf(w, "%-11s %-20s %14s %14s %9s  %s\n", "workload", "metric", "base", "new", "change", "verdict")
	for _, bw := range base.Workloads {
		nw, ok := byName[bw.Name]
		if !ok {
			continue
		}
		if bw.Unmeasurable || nw.Unmeasurable {
			fmt.Fprintf(w, "%-11s %-20s %14s %14s %9s  unmeasurable (num_cpu %d / %d), skipped\n",
				bw.Name, "*", "-", "-", "-", base.NumCPU, next.NumCPU)
			continue
		}
		for _, def := range gated {
			bm, bok := bw.Metrics[def.name]
			nm, nok := nw.Metrics[def.name]
			if !bok || !nok {
				continue
			}
			v := judge(def, bw.Name, bm, nm)
			switch v {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			change := "-"
			if bm.Value != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(nm.Value/bm.Value-1))
			}
			fmt.Fprintf(w, "%-11s %-20s %14.6g %14.6g %9s  %s\n", bw.Name, def.name, bm.Value, nm.Value, change, v)
		}
	}
	fmt.Fprintf(w, "%d worse, %d unresolved\n", worse, unresolved)
	return worse, unresolved
}

func loadResult(path string) (*Result, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
