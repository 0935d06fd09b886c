// Command vmmtrace runs one of the §3.2 application workloads on a chosen
// system (V++ with the default segment manager, or the Ultrix baseline) and
// prints the virtual-memory activity it generated — faults, manager calls,
// MigratePages invocations, I/O system calls, zero fills — plus the elapsed
// virtual time.
//
// Usage:
//
//	vmmtrace -workload diff -system vpp
//	vmmtrace -workload uncompress -system ultrix
//	vmmtrace -workload latex -system both
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/storage"
	"epcm/internal/trace"
	"epcm/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters. It returns the
// exit status: 0 on success, 1 when the run itself fails, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vmmtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "diff", "workload: diff, uncompress, latex, scan, random")
	system := fs.String("system", "both", "system: vpp, ultrix, both")
	memMB := fs.Int("mem", 128, "physical memory in MB (at least 1)")
	replay := fs.String("replay", "", "replay a recorded reference trace file instead of a workload")
	mru := fs.Bool("mru", false, "with -replay: use the MRU replacement policy instead of the clock")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(status int, err error) int {
		fmt.Fprintln(stderr, "vmmtrace:", err)
		return status
	}

	var spec workload.Spec
	calibrate := true
	switch *wl {
	case "diff":
		spec = workload.Diff()
	case "uncompress":
		spec = workload.Uncompress()
	case "latex":
		spec = workload.Latex()
	case "scan":
		spec = workload.Synthetic()[0]
		calibrate = false
	case "random":
		spec = workload.Synthetic()[1]
		calibrate = false
	default:
		return fail(2, fmt.Errorf("unknown workload %q (want diff, uncompress, latex, scan or random)", *wl))
	}
	if *system != "vpp" && *system != "ultrix" && *system != "both" {
		return fail(2, fmt.Errorf("unknown system %q (want vpp, ultrix or both)", *system))
	}
	if *memMB < 1 {
		return fail(2, fmt.Errorf("-mem %d: the machine needs at least 1 MB", *memMB))
	}

	if *replay != "" {
		if err := replayTrace(stdout, *replay, *memMB, *mru); err != nil {
			return fail(1, err)
		}
		return 0
	}

	cal := spec
	if calibrate {
		var err error
		cal, _, _, err = workload.Calibrated(spec)
		if err != nil {
			return fail(1, err)
		}
	}
	memPages := *memMB * 256

	if *system == "vpp" || *system == "both" {
		r, err := workload.NewVppRunner(memPages, kernel.Config{}, nil)
		if err != nil {
			return fail(1, err)
		}
		elapsed, c, err := workload.Run(r, cal)
		if err != nil {
			return fail(1, err)
		}
		report(stdout, "V++", spec.Name, elapsed, c)
	}
	if *system == "ultrix" || *system == "both" {
		r := workload.NewUltrixRunner(memPages)
		elapsed, c, err := workload.Run(r, cal)
		if err != nil {
			return fail(1, err)
		}
		report(stdout, "Ultrix", spec.Name, elapsed, c)
	}
	return 0
}

func report(w io.Writer, system, name string, elapsed time.Duration, c workload.Counters) {
	fmt.Fprintf(w, "%s running %s:\n", system, name)
	fmt.Fprintf(w, "  elapsed (virtual)     %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  page faults           %d\n", c.Faults)
	if c.ManagerCalls > 0 {
		fmt.Fprintf(w, "  manager calls          %d\n", c.ManagerCalls)
		fmt.Fprintf(w, "  MigratePages calls     %d\n", c.MigrateCalls)
	}
	fmt.Fprintf(w, "  read calls             %d\n", c.ReadCalls)
	fmt.Fprintf(w, "  write calls            %d\n", c.WriteCalls)
	if c.ZeroFills > 0 {
		fmt.Fprintf(w, "  security zero fills    %d\n", c.ZeroFills)
	}
	fmt.Fprintln(w)
}

// replayTrace replays a reference trace file against a fresh V++ machine.
func replayTrace(w io.Writer, path string, memMB int, mru bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: int64(memMB) << 20, StoreData: false})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
	pool, err := manager.NewFixedPool(k, int64(memMB)*256-64, 16)
	if err != nil {
		return err
	}
	cfg := manager.Config{Name: "replay", Source: pool, Backing: manager.NewSwapBacking(store)}
	if mru {
		cfg.Policy = manager.NewMRUPolicy()
	}
	g, err := manager.NewGeneric(k, cfg)
	if err != nil {
		return err
	}
	res, err := trace.Replay(k, tr, g.CreateManagedSegment)
	if err != nil {
		return err
	}
	policy := "clock"
	if mru {
		policy = "mru"
	}
	fmt.Fprintf(w, "replayed %d references over %d segments (policy %s, %d MB):\n",
		res.Refs, len(tr.Segments()), policy, memMB)
	fmt.Fprintf(w, "  faults   %d\n", res.Faults)
	fmt.Fprintf(w, "  reclaims %d\n", g.Stats().Reclaims)
	fmt.Fprintf(w, "  disk ops %d\n", store.Reads()+store.Writes())
	fmt.Fprintf(w, "  elapsed  %v (virtual)\n", clock.Now().Round(time.Millisecond))
	return nil
}
