// Package experiments packages each table of the paper's evaluation as a
// self-contained, harness-runnable experiment. Every function here builds
// its own phys.Memory, sim.Clock and kernel.Kernel and renders its human
// output into a private buffer, so experiments can run concurrently under
// internal/harness and still print byte-identically to a sequential run.
package experiments

import (
	"bytes"
	"fmt"
	"time"

	"epcm/internal/db"
	"epcm/internal/harness"
	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/spcm"
	"epcm/internal/storage"
	"epcm/internal/uio"
	"epcm/internal/ultrix"
	"epcm/internal/workload"
)

// Measure is one measured-vs-paper value, recorded in the benchmark
// trajectory (BENCH_reproduce.json).
type Measure struct {
	Name     string  `json:"name"`
	Measured float64 `json:"measured"`
	Paper    float64 `json:"paper,omitempty"`
	Unit     string  `json:"unit"`
}

// Report is the outcome of one experiment: its rendered output, pass/fail
// verdict, and the measurements that go into the trajectory record. Wall is
// filled in by the caller (the harness measures it).
type Report struct {
	Table    string        `json:"table"`
	OK       bool          `json:"ok"`
	Events   int64         `json:"events"` // simulated events driven (faults, calls, I/O ops, txns)
	Wall     time.Duration `json:"-"`
	Measures []Measure     `json:"measures,omitempty"`
	Output   []byte        `json:"-"`
}

// Modes is the three mode switches of a paper-table run, as cmd/reproduce's
// -sched, -super and -reclaim set them. Each is handed to the constructor it
// configures. The zero value is the golden reference, and the first two —
// and the clock named explicitly — must not change a byte of it
// (TestReproduceGolden).
type Modes struct {
	Concurrent bool   // every kernel boots the concurrent scheduler
	Superpages bool   // every kernel runs the superpage extent plane
	Policy     string // every manager's replacement policy; "" is the §2.2 clock
}

// kernelConfig is the configuration of every kernel the tables boot.
func (m Modes) kernelConfig() kernel.Config {
	return kernel.Config{Concurrent: m.Concurrent, Superpages: m.Superpages}
}

// policy returns a fresh instance of the replacement policy — they are
// stateful, one per manager — or nil, the manager's own default, for the
// clock.
func (m Modes) policy() manager.Policy {
	if m.Policy == "" {
		return nil
	}
	p, err := manager.NewPolicy(m.Policy)
	check(err)
	return p
}

// check panics on error; the harness captures the panic into the
// experiment's Result so one failing table cannot kill the others.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

func header(b *bytes.Buffer, s string) {
	fmt.Fprintf(b, "\n%s\n", s)
	for range s {
		b.WriteByte('=')
	}
	b.WriteByte('\n')
}

// Table1, Tables23 and Table4 are the tables in the zero-value Modes.
func Table1() (*Report, error)                      { return Modes{}.Table1() }
func Tables23() (*Report, error)                    { return Modes{}.Tables23() }
func Table4(txns int, seed uint64) (*Report, error) { return Modes{}.Table4(txns, seed) }

// Table1 measures the system primitives through the real code paths.
func (m Modes) Table1() (*Report, error) {
	rep := &Report{Table: "table1"}
	b := &bytes.Buffer{}
	header(b, "Table 1: System Primitive Times (microseconds)")

	vppFault := m.measureVppFault(kernel.DeliverSameProcess)
	vppMgr := m.measureVppFault(kernel.DeliverSeparateProcess)
	vppRead, vppWrite := m.measureVppIO()
	ultFault, ultRead, ultWrite, ultUser := measureUltrix()

	fmt.Fprintf(b, "%-38s %10s %10s %10s\n", "Measurement", "V++", "Ultrix", "Paper")
	rows := []struct {
		name        string
		vpp, ultrix time.Duration
		paper       string
	}{
		{"Faulting Process Minimal Fault", vppFault, ultFault, "107 / 175"},
		{"Default Segment Manager Minimal Fault", vppMgr, ultFault, "379 / 175"},
		{"Read 4KB", vppRead, ultRead, "222 / 211"},
		{"Write 4KB", vppWrite, ultWrite, "203 / 311"},
		{"User-level fault handler (Ultrix)", 0, ultUser, "- / 152"},
	}
	for _, r := range rows {
		fmt.Fprintf(b, "%-38s %10d %10d %10s\n", r.name,
			r.vpp.Microseconds(), r.ultrix.Microseconds(), r.paper)
	}
	rep.Measures = []Measure{
		{Name: "vpp_minimal_fault", Measured: float64(vppFault.Microseconds()), Paper: 107, Unit: "us"},
		{Name: "vpp_manager_minimal_fault", Measured: float64(vppMgr.Microseconds()), Paper: 379, Unit: "us"},
		{Name: "vpp_read_4k", Measured: float64(vppRead.Microseconds()), Paper: 222, Unit: "us"},
		{Name: "vpp_write_4k", Measured: float64(vppWrite.Microseconds()), Paper: 203, Unit: "us"},
		{Name: "ultrix_minimal_fault", Measured: float64(ultFault.Microseconds()), Paper: 175, Unit: "us"},
		{Name: "ultrix_user_fault_handler", Measured: float64(ultUser.Microseconds()), Paper: 152, Unit: "us"},
	}
	rep.Events = int64(len(rows))
	rep.OK = vppFault == 107*time.Microsecond && vppMgr == 379*time.Microsecond &&
		vppRead == 222*time.Microsecond && vppWrite == 203*time.Microsecond &&
		ultFault == 175*time.Microsecond && ultUser == 152*time.Microsecond
	rep.Output = b.Bytes()
	return rep, nil
}

func (m Modes) measureVppFault(d kernel.DeliveryMode) time.Duration {
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 8 << 20, StoreData: true})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), m.kernelConfig())
	s := spcm.New(k, spcm.DefaultPolicy())
	g, err := manager.NewGeneric(k, manager.Config{Name: "m", Delivery: d, Source: s, Policy: m.policy()})
	check(err)
	s.Register(g, "m", 1e9)
	seg, err := g.CreateManagedSegment("seg")
	check(err)
	check(g.EnsureFree(16))
	start := clock.Now()
	check(k.Access(seg, 0, kernel.Write))
	return clock.Now() - start
}

func (m Modes) measureVppIO() (read, write time.Duration) {
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 8 << 20, StoreData: true})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), m.kernelConfig())
	store := storage.NewStore(&clock, storage.NetworkServer(), 4096)
	s := spcm.New(k, spcm.DefaultPolicy())
	fb := manager.NewFileBacking(store)
	g, err := manager.NewGeneric(k, manager.Config{Name: "m", Source: s, Backing: fb, Policy: m.policy()})
	check(err)
	s.Register(g, "m", 1e9)
	seg, err := g.CreateManagedSegment("file")
	check(err)
	fb.BindFile(seg, "file")
	// Warm one page.
	check(k.Access(seg, 0, kernel.Write))

	f := uio.Open(k, seg, "file", 1)
	buf := make([]byte, 4096)
	start := clock.Now()
	check(f.ReadBlock(0, buf))
	read = clock.Now() - start
	start = clock.Now()
	check(f.WriteBlock(0, buf))
	write = clock.Now() - start
	return read, write
}

func measureUltrix() (fault, read, write, user time.Duration) {
	var clock sim.Clock
	store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
	store.Preload("f", 2, nil)
	s := ultrix.New(&clock, sim.DECstation5000(), store, 4096)
	region := s.NewRegion("heap")
	fault = s.MinimalFault(region, 0)

	f := s.OpenFile("f")
	f.Read4K(0)
	start := clock.Now()
	f.Read4K(0)
	read = clock.Now() - start
	f.Write4K(0)
	start = clock.Now()
	f.Write4K(0)
	write = clock.Now() - start

	region.Touch(5, true)
	region.Mprotect(5, true)
	start = clock.Now()
	region.Touch(5, false)
	user = clock.Now() - start
	return
}

// Tables23 reproduces the application benchmarks (elapsed time and VM
// system activity). The three programs run on one V++ machine, each on a
// fresh runner: the machine restores its post-stocking image before every
// row but the first, so each row starts where a fresh boot would.
func (m Modes) Tables23() (*Report, error) {
	rep := &Report{Table: "tables2-3", OK: true}
	b := &bytes.Buffer{}
	header(b, "Table 2: Application Elapsed Time (seconds) / Table 3: VM System Activity")
	fmt.Fprintf(b, "%-11s | %8s %8s %8s %8s | %6s %6s %7s %7s %9s %9s\n",
		"Program", "V++", "paper", "Ultrix", "paper", "Calls", "paper", "Migrate", "paper", "Ovhd(ms)", "paper")
	// The Ultrix calibrations are independent of the V++ machine and of one
	// another, so they run on the harness beside its boot; the V++ rows then
	// run in order on the one machine.
	specs := workload.All()
	cals := make([]calibration, len(specs))
	var mach *workload.Machine
	tasks := []harness.Task[struct{}]{{Name: "machine", Run: func() (_ struct{}, err error) {
		mach, err = workload.NewMachine(0, m.kernelConfig())
		return
	}}}
	for i, spec := range specs {
		tasks = append(tasks, harness.Task[struct{}]{Name: spec.Name, Run: func() (_ struct{}, err error) {
			c := &cals[i]
			c.spec, c.ultrix, c.counters, err = workload.Calibrated(spec)
			return
		}})
	}
	for _, r := range harness.Run(tasks, 0) {
		check(r.Err)
	}
	for i, spec := range specs {
		cal, ue, uc := cals[i].spec, cals[i].ultrix, cals[i].counters
		vr, err := mach.Runner(m.policy())
		check(err)
		ve, vc, err := workload.Run(vr, cal)
		check(err)
		overhead := time.Duration(vc.ManagerCalls) * 204 * time.Microsecond
		fmt.Fprintf(b, "%-11s | %8.2f %8.2f %8.2f %8.2f | %6d %6d %7d %7d %9.0f %9d\n",
			spec.Name, ve.Seconds(), spec.PaperVppElapsed.Seconds(),
			ue.Seconds(), spec.UltrixElapsed.Seconds(),
			vc.ManagerCalls, spec.PaperCalls, vc.MigrateCalls, spec.PaperMigrates,
			float64(overhead.Milliseconds()), spec.PaperOverhead.Milliseconds())
		if diffPct(vc.MigrateCalls, spec.PaperMigrates) > 3 {
			rep.OK = false
		}
		rep.Events += vc.Faults + vc.ManagerCalls + vc.MigrateCalls + vc.ReadCalls + vc.WriteCalls +
			uc.Faults + uc.ReadCalls + uc.WriteCalls + uc.ZeroFills
		rep.Measures = append(rep.Measures,
			Measure{Name: spec.Name + "_vpp_elapsed", Measured: ve.Seconds(), Paper: spec.PaperVppElapsed.Seconds(), Unit: "s"},
			Measure{Name: spec.Name + "_migrate_calls", Measured: float64(vc.MigrateCalls), Paper: float64(spec.PaperMigrates), Unit: "calls"},
		)
	}
	fmt.Fprintln(b, "\n(The Ultrix column is calibrated to the paper by construction;")
	fmt.Fprintln(b, " the V++ column and all Table 3 activity counts are emergent.)")
	rep.Output = b.Bytes()
	return rep, nil
}

// calibration is one row's Ultrix run: the calibrated spec, its elapsed
// time and its activity counts.
type calibration struct {
	spec     workload.Spec
	ultrix   time.Duration
	counters workload.Counters
}

func diffPct(got, want int64) int64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	if want == 0 {
		return 0
	}
	return d * 100 / want
}

// Table4 reproduces the database experiment. txns and seed of 0 keep the
// defaults.
func (m Modes) Table4(txns int, seed uint64) (*Report, error) {
	rep := &Report{Table: "table4", OK: true}
	b := &bytes.Buffer{}
	header(b, "Table 4: Effect of Memory Usage on Transaction Response (ms)")
	p := db.DefaultParams()
	if txns > 0 {
		p.Transactions = txns
	}
	if seed != 0 {
		p.Seed = seed
	}
	paper := db.PaperTable4()
	fmt.Fprintf(b, "%-22s %10s %10s %12s %12s %8s %8s\n",
		"Configuration", "Average", "paper", "Worst-case", "paper", "p95", "p99")
	for _, r := range db.RunAll(p) {
		want := paper[r.Config]
		fmt.Fprintf(b, "%-22s %10d %10d %12d %12d %8d %8d\n", r.Config,
			r.Average().Milliseconds(), want[0].Milliseconds(),
			r.Worst().Milliseconds(), want[1].Milliseconds(),
			r.Responses.Percentile(95).Milliseconds(),
			r.Responses.Percentile(99).Milliseconds())
		if r.Deadlocked != 0 {
			fmt.Fprintf(b, "  !! %d transactions deadlocked\n", r.Deadlocked)
			rep.OK = false
		}
		rep.Events += int64(r.CompletedTxns) + r.Faults + r.Regenerations + r.LockWaits
		rep.Measures = append(rep.Measures,
			Measure{Name: r.Config.String() + "_avg", Measured: float64(r.Average().Milliseconds()), Paper: float64(want[0].Milliseconds()), Unit: "ms"},
			Measure{Name: r.Config.String() + "_worst", Measured: float64(r.Worst().Milliseconds()), Paper: float64(want[1].Milliseconds()), Unit: "ms"},
		)
	}
	fmt.Fprintf(b, "\n(%d transactions, %d processors, %.0f tps, %.0f%% joins, seed %d)\n",
		p.Transactions, p.Processors, p.ArrivalTPS, p.JoinFraction*100, p.Seed)
	rep.Output = b.Bytes()
	return rep, nil
}

// Ablations prints quick versions of the design-choice ablations (the full
// versions are the go test -bench=Ablation benchmarks).
func Ablations() (*Report, error) {
	rep := &Report{Table: "ablations", OK: true}
	b := &bytes.Buffer{}
	header(b, "Ablations (design choices)")
	cost := sim.DECstation5000()
	fmt.Fprintf(b, "%-34s %s\n", "fault delivery", fmt.Sprintf("same-process %v, separate-manager %v",
		cost.VppMinimalFaultSameProcess(), cost.VppMinimalFaultSeparateManager()))
	fmt.Fprintf(b, "%-34s %s\n", "zero-fill on allocation",
		fmt.Sprintf("Ultrix %v with, %v without; V++ needs none",
			cost.UltrixMinimalFault(), cost.UltrixMinimalFault()-cost.ZeroPage))
	fmt.Fprintf(b, "%-34s %s\n", "user-level fault handler",
		fmt.Sprintf("Ultrix signal+mprotect %v vs V++ full fault %v",
			cost.UltrixUserFaultHandler(), cost.VppMinimalFaultSameProcess()))

	// Replacement policy: cyclic scan, clock vs MRU.
	clockFaults, mruFaults := replacementAblation()
	fmt.Fprintf(b, "%-34s clock %d faults, app MRU policy %d faults\n", "replacement selection (cyclic scan)", clockFaults, mruFaults)
	fmt.Fprintln(b, "\n(run `go test -bench=Ablation` for the full ablation suite)")
	rep.Events = clockFaults + mruFaults
	rep.Measures = []Measure{
		{Name: "replacement_clock_faults", Measured: float64(clockFaults), Unit: "faults"},
		{Name: "replacement_mru_faults", Measured: float64(mruFaults), Unit: "faults"},
	}
	rep.Output = b.Bytes()
	return rep, nil
}

func replacementAblation() (clockFaults, mruFaults int64) {
	run := func(policy manager.Policy) int64 {
		mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 1 << 20, StoreData: false})
		var clock sim.Clock
		k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
		store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
		pool, err := manager.NewFixedPool(k, 64, 0)
		check(err)
		g, err := manager.NewGeneric(k, manager.Config{
			Name: "scan", Source: pool, Backing: manager.NewSwapBacking(store), Policy: policy,
		})
		check(err)
		seg, err := g.CreateManagedSegment("data")
		check(err)
		for pass := 0; pass < 4; pass++ {
			for p := int64(0); p < 128; p++ {
				check(k.Access(seg, p, kernel.Read))
			}
		}
		return g.Stats().Faults
	}
	return run(nil), run(manager.NewMRUPolicy())
}
