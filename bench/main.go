// Command bench is this repository's benchmark: five workloads over the
// public functions of internal/*, end-to-end metrics in host time and in
// simulated time, and a per-layer budget measured from outside the program.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run -C bench .                         all five workloads, traced
//	go run -C bench . -workload fill -trace 0 one workload, end-to-end only
//	go run -C bench . -compare a.json b.json  apply the bounds to two results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (fill, replace, concurrent, extent, tables); default all five, round-robin")
	seed := fs.Uint64("seed", defaultSeed, "the only input knob: feeds replace's reference string and read/write mix, and Table 4")
	seconds := fs.Float64("seconds", 15, "measuring time per workload, split over its boots")
	trace := fs.Int("trace", 1, "1 adds traced cells and probe loops and reports the per-layer metrics; 0 reports end-to-end only")
	out := fs.String("out", "", "write the result file here")
	traceOut := fs.String("trace-out", "", "write the kept spans here as Chrome-trace JSON (needs -trace 1)")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files")
			return 2
		}
		var results [2]*Result
		for i := range results {
			r, err := loadResult(fs.Arg(i))
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 2
			}
			results[i] = r
		}
		if worse, _ := compareResults(stdout, results[0], results[1]); worse > 0 {
			return 1
		}
		return 0
	}

	names := workloadNames
	if *workload != "" {
		names = nil
		for _, n := range workloadNames {
			if n == *workload {
				names = []string{n}
			}
		}
		if names == nil {
			fmt.Fprintf(stderr, "bench: no workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}

	res, err := runAll(names, *seed, fullSizes, *seconds, *trace == 1, *traceOut != "")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printResult(stdout, res)

	code := 0
	for _, w := range res.Workloads {
		if !w.Correct {
			fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed\n", w.Name, w.Failed, w.Attempted)
			code = 1
		}
	}
	if *out != "" {
		res.Commit = commit()
		blob, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	if *traceOut != "" {
		if err := writeChromeTraceFile(*traceOut, res.Workloads); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	if code != 0 {
		return code // a failed check prints no result line
	}
	if len(names) == 1 {
		// The driver's contract: the last line of standard output is one
		// JSON object with the metrics BENCHMARK.json lists for this mode.
		line, err := json.Marshal(driverMetrics(res.Workloads[0], *trace == 1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

// commit is the checkout's HEAD for the result file's stamp, or "unknown"
// outside a git repository.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// printResult prints every metric of every workload by name and unit, and
// the budget table of each traced workload.
func printResult(w io.Writer, res *Result) {
	fmt.Fprintf(w, "bench: seed %d, %.0f s per workload, num_cpu %d, gomaxprocs %d, %s\n",
		res.Seed, res.Seconds, res.NumCPU, res.GOMAXPROCS, res.GoVersion)
	for _, wl := range res.Workloads {
		note := ""
		if wl.Unmeasurable {
			note = "  (unmeasurable: fewer CPUs than driver goroutines)"
		}
		fmt.Fprintf(w, "\n== %s%s: %d ops attempted, %d failed\n", wl.Name, note, wl.Attempted, wl.Failed)
		for _, defs := range [][]metricDef{gated, layered} {
			for _, d := range defs {
				m, ok := wl.Metrics[d.name]
				if !ok {
					continue
				}
				fmt.Fprintf(w, "  %-34s %14.6g %-8s", d.name, m.Value, m.Unit)
				if m.Lo != nil {
					fmt.Fprintf(w, " cells q1 %.6g  q3 %.6g  n %d", *m.Lo, *m.Hi, m.N)
				}
				fmt.Fprintln(w)
			}
		}
		printBudget(w, wl)
	}
}

// printBudget prints Σ layer self-time against the traced ns/op.
func printBudget(w io.Writer, wl WorkloadResult) {
	if len(wl.Budget) == 0 {
		return
	}
	total := 0.0
	for _, r := range wl.Budget {
		total += r.SelfNS
	}
	fmt.Fprintf(w, "  -- budget: layer self-time per op, traced cells (host ns) --\n")
	for _, r := range wl.Budget {
		fmt.Fprintf(w, "  %-42s %10.1f ns %6.1f %%\n", r.Layer, r.SelfNS, 100*r.SelfNS/total)
	}
	fmt.Fprintf(w, "  %-42s %10.1f ns   (mean over traced epochs, uncalibrated)\n", "sum = bench.traced_ns_per_op", total)
}
