// Command reproduce regenerates every table of the paper's evaluation
// (Harty & Cheriton, ASPLOS 1992) and prints measured-vs-paper values.
//
// The selected tables run concurrently on the experiment harness — each
// builds its own simulator instances, so output is byte-identical at any
// parallelism level and is printed in table order regardless of which
// experiment finishes first. Everything printed is virtual time under the
// paper's cost model; how fast the host runs it is `go run -C bench .`'s
// question.
//
// Usage:
//
//	reproduce                        # all tables, GOMAXPROCS-wide
//	reproduce -table 1               # just Table 1
//	reproduce -table 4 -txns 8000
//	reproduce -par 1                 # sequential
//	reproduce -ablations             # also the design-choice ablation summary
//	reproduce -sweep plane           # also one extension table: plane, policy, time or super
//	reproduce -sweep all             # ... or all four
//	reproduce -sched concurrent      # concurrent fault-delivery scheduler
//	reproduce -super                 # enable the superpage extent fast path
//	reproduce -reclaim lru           # replacement policy of the tables' managers
//	reproduce -profile out/          # write mutex/block pprof profiles to a directory
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"epcm/internal/experiments"
	"epcm/internal/harness"
	"epcm/internal/kernel"
	"epcm/internal/manager"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. It returns the
// exit status: 0 when every table meets its paper values and every sweep
// its gates, 1 when one does not, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "table to reproduce (1-4); 0 means all")
	txns := fs.Int("txns", 0, "override Table 4 transaction count")
	seed := fs.Uint64("seed", 0, "override Table 4 random seed")
	ablations := fs.Bool("ablations", false, "also print the design-choice ablation summary")
	par := fs.Int("par", 0, "worker-pool size; 0 means GOMAXPROCS, 1 means sequential")
	sched := fs.String("sched", "serial", "fault-delivery scheduler: serial (deterministic) or concurrent")
	super := fs.Bool("super", false, "enable the superpage extent fast path in every kernel the tables boot (off by default; the golden tables assume it off)")
	reclaim := fs.String("reclaim", "", "replacement policy for every manager the tables boot: clock (the default), lru, lfu, s3fifo or mglru")
	profileDir := fs.String("profile", "", "write mutex and block pprof profiles to this directory at exit")
	sweep := fs.String("sweep", "", "also print an extension table (model numbers only): "+sweepNames()+", or all")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "reproduce:", err)
		return 2
	}
	if *table < 0 || *table > 4 {
		return usage(fmt.Errorf("no such table %d (want 1-4, or 0 for all)", *table))
	}
	var sweeps []experiments.Sweep
	for _, s := range experiments.Sweeps {
		if *sweep == "all" || *sweep == s.Name {
			sweeps = append(sweeps, s)
		}
	}
	if *sweep != "" && len(sweeps) == 0 {
		return usage(fmt.Errorf("no such sweep %q (want %s, or all)", *sweep, sweepNames()))
	}
	modes, err := parseModes(*sched, *reclaim, *super)
	if err != nil {
		return usage(err)
	}
	if *profileDir != "" {
		// Contention profiling: sample every mutex hold and every blocking
		// event for the whole run, and write the profiles out once the
		// selected experiments finish.
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(1)
		defer writeProfiles(*profileDir, stderr)
	}

	var tasks []harness.Task[*experiments.Report]
	add := func(name string, run func() (*experiments.Report, error)) {
		tasks = append(tasks, harness.Task[*experiments.Report]{Name: name, Run: run})
	}
	if *table == 0 || *table == 1 {
		add("table1", modes.Table1)
	}
	if *table == 0 || *table == 2 || *table == 3 {
		add("tables2-3", modes.Tables23)
	}
	if *table == 0 || *table == 4 {
		add("table4", func() (*experiments.Report, error) { return modes.Table4(*txns, *seed) })
	}
	if *ablations {
		add("ablations", experiments.Ablations)
	}
	for _, s := range sweeps {
		add(s.Name, s.Run)
	}

	status := 0
	for _, r := range harness.Run(tasks, *par) {
		if r.Err != nil {
			fmt.Fprintf(stderr, "reproduce: %s: %v\n", r.Name, r.Err)
			status = 1
			continue
		}
		stdout.Write(r.Value.Output)
		if !r.Value.OK {
			status = 1
		}
	}
	return status
}

// parseModes builds the tables' Modes from the three mode flags, rejecting a
// name no constructor knows.
func parseModes(sched, reclaim string, super bool) (experiments.Modes, error) {
	m := experiments.Modes{Superpages: super, Policy: reclaim}
	var err error
	if m.Concurrent, err = kernel.ParseScheduler(sched); err != nil {
		return m, err
	}
	if reclaim != "" {
		if _, err := manager.NewPolicy(reclaim); err != nil {
			return m, err
		}
	}
	return m, nil
}

// sweepNames is the -sweep values, comma-separated, in table order.
func sweepNames() string {
	names := make([]string, len(experiments.Sweeps))
	for i, s := range experiments.Sweeps {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

// writeProfiles dumps the mutex and block profiles collected during the
// run (enabled by -profile) into dir, creating it if needed. Errors are
// reported but never change the exit status: profiles are diagnostic
// artifacts, not results.
func writeProfiles(dir string, stderr io.Writer) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "reproduce: -profile:", err)
		return
	}
	for _, name := range []string{"mutex", "block"} {
		prof := pprof.Lookup(name)
		if prof == nil {
			continue
		}
		path := filepath.Join(dir, name+".pprof")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(stderr, "reproduce: -profile:", err)
			continue
		}
		if err := prof.WriteTo(f, 0); err != nil {
			fmt.Fprintln(stderr, "reproduce: -profile:", err)
		}
		f.Close()
		fmt.Fprintf(stderr, "reproduce: wrote %s\n", path)
	}
}
