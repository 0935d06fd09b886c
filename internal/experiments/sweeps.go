package experiments

import (
	"bytes"
	"fmt"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/storage"
	"epcm/internal/workload"
)

// The sweeps are the extension tables beside the paper's four: fixed-size
// grids over the mechanisms the paper does not evaluate, printing only what
// the cost model determines — every column is bit-identical run to run, at
// any parallelism and on any host, and testdata/sweeps.golden pins them.
// Their gates are ratios of model numbers. Every cell names each mode it
// runs in — scheduler, extent order and policy are the grids — so Modes,
// the paper tables' configuration, does not reach them and the file holds
// under any of cmd/reproduce's mode flags. None of them reads a wall
// clock: how fast the host runs any of this is `go run -C bench .`'s
// question.

// Sweep is one named extension table.
type Sweep struct {
	Name string
	Run  func() (*Report, error)
}

// Sweeps lists the extension tables in the order cmd/reproduce prints them.
var Sweeps = []Sweep{
	{"plane", planeSweep},
	{"policy", policySweep},
	{"super", superSweep},
}

// ms renders a virtual duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// planeSweep is the delivery-plane scaling table: both schedulers over 1, 2,
// 4 and 8 managers at PlaneThroughput's default 512 faults per manager. Gate:
// model throughput at 4 managers is at least twice that at 1 under each
// scheduler. Every column is exact on both schedulers' rows: a segment's
// TLB is its own under the concurrent one, so no lane's installs depend on
// another's timing.
func planeSweep() (*Report, error) {
	rep := &Report{Table: "plane"}
	b := &bytes.Buffer{}
	header(b, "Delivery-Plane Fault Throughput (not in paper; model scaling with managers)")
	fmt.Fprintf(b, "%-12s %9s %10s %14s %16s\n",
		"Scheduler", "Managers", "Faults", "Makespan(ms)", "Model faults/s")
	rate := map[string]float64{} // "sched/n" -> model faults/s
	for _, sched := range []string{"serial", "concurrent"} {
		for _, n := range []int{1, 2, 4, 8} {
			r, err := PlaneThroughput(PlaneOptions{Scheduler: sched, Managers: n})
			if err != nil {
				return nil, err
			}
			rate[fmt.Sprintf("%s/%d", sched, n)] = r.ModelFaultsPerSec()
			fmt.Fprintf(b, "%-12s %9d %10d %14.2f %16.0f\n", sched, n, r.Faults,
				ms(r.Makespan), r.ModelFaultsPerSec())
		}
	}
	// By name, so a row that goes missing from the ladder fails the sweep
	// instead of gating some other cell against itself.
	scaling := func(sched string) (float64, error) {
		one, four := rate[sched+"/1"], rate[sched+"/4"]
		if one <= 0 || four <= 0 {
			return 0, fmt.Errorf("experiments: plane sweep has no %s row at 1 or at 4 managers to gate on", sched)
		}
		return four / one, nil
	}
	serial, err := scaling("serial")
	if err != nil {
		return nil, err
	}
	concurrent, err := scaling("concurrent")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b, "\nmodel faults/s, 4 managers vs 1 (serial): %.2fx (target >= 2x)\n", serial)
	fmt.Fprintf(b, "model faults/s, 4 managers vs 1 (concurrent) >= 2x: %v\n", concurrent >= 2)
	rep.OK = serial >= 2 && concurrent >= 2
	rep.Output = b.Bytes()
	return rep, nil
}

// superExtentOrder is the extent order of the superpage arm: 2^4 = 16 base
// pages (64 KB extents on the 4 KB base page), inside the kernel's
// MaxExtentOrder and large enough that the per-extent economics dominate
// the per-page residue.
const superExtentOrder = 4

// superPages is each manager's dense sequential working set in the super
// sweep; a multiple of the extent size, so no partial tail.
const superPages = 1024

// superSweep is the superpage table: base pages against order-4 extents at
// 2 and 8 managers under both schedulers. In the superpage arm one fault
// fills a whole naturally aligned extent through a contiguous grant and
// installs a single mapping/TLB entry, so the rate that matters is resident
// base pages made per model second, not faults. Every row prints its
// makespan and that rate, exact under both schedulers. Gates, on the serial
// rows: the super arm builds the working set at least twice as fast as the
// base arm at 8 managers and does not slow from 2 to 8; on every row: all
// touched pages resident.
func superSweep() (*Report, error) {
	rep := &Report{Table: "super"}
	b := &bytes.Buffer{}
	header(b, "Superpage Extent Fast Path (not in paper; one mapping entry per extent)")
	fmt.Fprintf(b, "extent_order=%d (%d pages/extent), %d pages per manager\n",
		superExtentOrder, 1<<superExtentOrder, superPages)
	fmt.Fprintf(b, "%-6s %-12s %9s %8s %11s %9s %9s %14s %15s\n",
		"Arm", "Scheduler", "Managers", "Faults", "Promotions", "Fidelity", "TLBreach", "Makespan(ms)", "Model pages/s")
	pages := map[string]float64{} // "arm/n" -> serial model pages/s
	resident := true
	for _, arm := range []string{"base", "super"} {
		order := 0
		if arm == "super" {
			order = superExtentOrder
		}
		for _, sched := range []string{"serial", "concurrent"} {
			for _, n := range []int{2, 8} {
				r, err := PlaneThroughput(PlaneOptions{
					Scheduler: sched, Managers: n, FaultsPerManager: superPages, ExtentOrder: order,
				})
				if err != nil {
					return nil, err
				}
				resident = resident && r.HitFidelity == 1
				rate := float64(n*superPages) / r.Makespan.Seconds()
				if sched == "serial" {
					pages[fmt.Sprintf("%s/%d", arm, n)] = rate
				}
				fmt.Fprintf(b, "%-6s %-12s %9d %8d %11d %9.3f %9.2f %14.2f %15.0f\n", arm, sched, n,
					r.Faults, r.ExtentPromotions, r.HitFidelity, r.TLBReachPages, ms(r.Makespan), rate)
			}
		}
	}
	speedup := pages["super/8"] / pages["base/8"]
	mono := pages["super/8"] >= pages["super/2"]
	fmt.Fprintf(b, "\nmodel pages/s, 8 managers, superpages vs base pages (serial): %.2fx (target >= 2x)\n", speedup)
	fmt.Fprintf(b, "superpage model pages/s non-decreasing 2 -> 8 managers (serial): %v\n", mono)
	fmt.Fprintf(b, "every touched page resident on every row: %v\n", resident)
	rep.OK = speedup >= 2 && mono && resident
	rep.Output = b.Bytes()
	return rep, nil
}

// policyCell is one cell of the policy sweep. Everything in it is
// virtual-time deterministic (fixed seeds).
type policyCell struct {
	Policy   string
	Workload string
	Pressure string // light/medium/heavy
	Frames   int64
	Refs     int
	Faults   int64
	Reclaims int64
	HitRate  float64
	// FaultLatencyUS is virtual elapsed time per fault, µs.
	FaultLatencyUS float64
}

// policyRefs builds the named reference string. Footprints are sized so a
// cell at pressure p runs with p×footprint frames.
func policyRefs(name string, refs int) ([]int64, error) {
	switch name {
	case "zipf":
		return workload.ZipfRefs(512, refs, 1.1, 1992), nil
	case "scan":
		return workload.ScanRefs(min(refs, 4096)), nil
	case "loop":
		return workload.LoopRefs(512, refs), nil
	case "mixed":
		return workload.MixedRefs(512, refs, 1992), nil
	default:
		return nil, fmt.Errorf("experiments: unknown policy-sweep workload %q", name)
	}
}

var (
	policyWorkloads = []string{"zipf", "scan", "loop", "mixed"}
	policyPressures = []struct {
		name  string
		ratio float64
	}{
		{"light", 0.75},
		{"medium", 0.50},
		{"heavy", 0.25},
	}
)

// policySweepRefs is the reference-string length of every policy cell.
const policySweepRefs = 20000

// runPolicyCell boots a self-contained kernel + fixed frame pool and
// replays the reference string through one manager running the named
// policy.
func runPolicyCell(policyName, workloadName, pressure string, refs []int64, frames int64) (*policyCell, error) {
	const frameSize = 4096
	mem := phys.NewMemory(phys.Config{FrameSize: frameSize, TotalBytes: (frames + 64) * frameSize})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	defer k.Scheduler().Stop()
	pool, err := manager.NewFixedPool(k, frames, 0)
	if err != nil {
		return nil, err
	}
	pol, err := manager.NewPolicy(policyName)
	if err != nil {
		return nil, err
	}
	store := storage.NewStore(&clock, storage.NetworkServer(), frameSize)
	g, err := manager.NewGeneric(k, manager.Config{
		Name:    "shootout-" + policyName,
		Backing: manager.NewSwapBacking(store),
		Source:  pool,
		Policy:  pol,
	})
	if err != nil {
		return nil, err
	}
	g.PresizeResident(int(frames) + 8)
	seg, err := g.CreateManagedSegment("shootout-data")
	if err != nil {
		return nil, err
	}
	clock.Reset()
	for _, p := range refs {
		if err := k.Access(seg, p, kernel.Write); err != nil {
			return nil, fmt.Errorf("policy %s %s/%s: %w", policyName, workloadName, pressure, err)
		}
	}
	st := g.Stats()
	cell := &policyCell{
		Policy:   policyName,
		Workload: workloadName,
		Pressure: pressure,
		Frames:   frames,
		Refs:     len(refs),
		Faults:   st.Faults,
		Reclaims: st.Reclaims,
	}
	if n := len(refs); n > 0 {
		cell.HitRate = 1 - float64(st.Faults)/float64(n)
	}
	if st.Faults > 0 {
		cell.FaultLatencyUS = float64(clock.Now().Microseconds()) / float64(st.Faults)
	}
	return cell, nil
}

// policyGrid runs policies × workloads × the three pressures at refsN
// references per cell, workload-major.
func policyGrid(policies, workloads []string, refsN int) ([]policyCell, error) {
	var cells []policyCell
	for _, wl := range workloads {
		refs, err := policyRefs(wl, refsN)
		if err != nil {
			return nil, err
		}
		footprint := workload.Footprint(refs)
		for _, pr := range policyPressures {
			frames := max(int64(pr.ratio*float64(footprint)), 16)
			for _, pol := range policies {
				cell, err := runPolicyCell(pol, wl, pr.name, refs, frames)
				if err != nil {
					return nil, err
				}
				cells = append(cells, *cell)
			}
		}
	}
	return cells, nil
}

// policySweep is the replacement-policy table: every registered policy ×
// every canonical reference-string shape × three memory pressures, on one
// self-contained manager with an exactly sized frame pool. Its check is
// structural sanity, not a ranking: under the skewed workload at heavy
// pressure every policy must keep a usable hit rate (the hot quarter fits).
func policySweep() (*Report, error) {
	cells, err := policyGrid(manager.PolicyNames(), policyWorkloads, policySweepRefs)
	if err != nil {
		return nil, err
	}
	rep := &Report{Table: "policy", OK: true}
	b := &bytes.Buffer{}
	header(b, "Replacement-Policy Shootout (not in paper; §2.2 selection routines)")
	fmt.Fprintf(b, "%-8s %-8s %-7s %7s %10s %8s %9s %13s\n",
		"Policy", "Workload", "Press", "Frames", "Refs", "Faults", "Hit rate", "Fault lat(us)")
	for _, c := range cells {
		fmt.Fprintf(b, "%-8s %-8s %-7s %7d %10d %8d %9.3f %13.1f\n",
			c.Policy, c.Workload, c.Pressure, c.Frames, c.Refs, c.Faults, c.HitRate, c.FaultLatencyUS)
		if c.HitRate < 0 || c.HitRate > 1 {
			rep.OK = false
		}
	}
	for _, c := range cells {
		if c.Workload == "zipf" && c.Pressure == "heavy" && c.HitRate < 0.2 {
			rep.OK = false
			fmt.Fprintf(b, "\nFAIL: %s hit rate %.3f on zipf/heavy (< 0.2)\n", c.Policy, c.HitRate)
		}
	}
	rep.Output = b.Bytes()
	return rep, nil
}
