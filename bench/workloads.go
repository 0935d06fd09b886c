package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"epcm/internal/db"
	"epcm/internal/experiments"
	"epcm/internal/harness"
	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/spcm"
	"epcm/internal/storage"
	"epcm/internal/workload"
)

// workloadNames is the run order; BENCHMARK.json lists the same five.
var workloadNames = []string{"fill", "replace", "concurrent", "extent", "tables"}

// sizes are the fixed work constants of one epoch. They are never derived
// from the wall clock: the simulated metrics are taken over the first
// SimEpochs epochs of a cell, so they repeat exactly however long the cell
// then keeps running.
type sizes struct {
	FillPages     int   // pages first-touched per fill/concurrent/extent epoch
	ReplaceRefs   int   // accesses per replace epoch
	ReplacePages  int64 // replace footprint
	ReplaceFrames int64 // replace fixed pool
	SimEpochs     int   // epochs the sim_* metrics and C-counts cover
	Rounds        int   // cells (boots) per workload
	ProbeBatch    int   // calls per probe sample
	ProbeReps     int   // samples per probe
}

var fullSizes = sizes{
	FillPages:     16384,
	ReplaceRefs:   32768,
	ReplacePages:  4096,
	ReplaceFrames: 1024,
	SimEpochs:     4,
	Rounds:        5,
	ProbeBatch:    4096,
	ProbeReps:     21,
}

const (
	frameSize      = 4096
	extentOrder    = 4
	goldenPath     = "../internal/experiments/testdata/reproduce.golden"
	defaultSeed    = 1992
	replaceWriteP  = 0.30
	replaceZipfS   = 1.1
	concurrentMgrs = 2
)

// epochResult is what one epoch reports. ops and wall cover the timed part
// only; failed counts ops that returned an error or failed verification.
type epochResult struct {
	ops, failed int64
	wall        time.Duration
	simTime     time.Duration // sim.Clock delta over the timed part
	count       counts        // C-count deltas over the timed part
	paperErr    float64       // tables only: mean |measured-paper|/paper, percent
	tableWall   [3]time.Duration
	tableEvents [3]int64
}

// counts are the exact counters read from public Stats() calls, as deltas
// over the timed part of an epoch.
type counts [numCounts]int64

const (
	cFaults = iota
	cMigrateCalls
	cMigratedPages
	cModifyCalls
	cGetAttrCalls
	cTLBHits
	cTLBMisses
	cHashHits
	cHashMisses
	cHashSpills
	cExtentPromotions
	cVectoredBatches
	cMgrFaults
	cFills
	cFastRefaults
	cWritebacks
	cReclaims
	cRefused
	numCounts
)

func (a counts) sub(b counts) counts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a *counts) add(b counts) {
	for i := range a {
		a[i] += b[i]
	}
}

// system is one booted workload instance, re-used warm across epochs.
type system interface {
	// epoch runs the timed part of one epoch.
	epoch() epochResult
	// reset verifies what the epoch built and prepares the next one, all
	// untimed, returning how many checks failed.
	reset() int64
	// check runs the end-of-workload invariant checks, returning how many
	// failed.
	check() int64
	close()
}

// boot builds the named workload's system. tr is nil for an untraced cell.
func boot(name string, seed uint64, sz sizes, tr *tracer) (system, error) {
	if name == "tables" {
		return newTables(seed)
	}
	return bootFault(name, seed, sz, tr)
}

// ---- the four fault-path workloads ----

type faultSys struct {
	name   string
	sz     sizes
	k      *kernel.Kernel
	clock  *sim.Clock
	pool   *spcm.SPCM // nil on replace
	mgrs   []*manager.Generic
	segs   []*kernel.Segment
	traced []*tracedManager // nil when untraced; segments are bound to these
	tracks []*track         // traced[i]'s track
	epochs int
	// replace's reference string
	refs   []int64
	writes []bool
}

// replaceRefs generates the replace workload's inputs from the seed.
func replaceRefs(seed uint64, sz sizes) ([]int64, []bool) {
	refs := workload.ZipfRefs(sz.ReplacePages, sz.ReplaceRefs, replaceZipfS, seed)
	rng := sim.NewRNG(seed ^ 0x5eed)
	writes := make([]bool, len(refs))
	for i := range writes {
		writes[i] = rng.Bool(replaceWriteP)
	}
	return refs, writes
}

func bootFault(name string, seed uint64, sz sizes, tr *tracer) (*faultSys, error) {
	s := &faultSys{name: name, sz: sz, clock: new(sim.Clock)}
	nm := 1
	if name == "concurrent" {
		nm = concurrentMgrs
	}
	memBytes := 2*int64(sz.FillPages)*frameSize + 8<<20
	if name == "replace" {
		memBytes = (sz.ReplaceFrames + 64) * frameSize
		s.refs, s.writes = replaceRefs(seed, sz)
	}
	mem := phys.NewMemory(phys.Config{FrameSize: frameSize, TotalBytes: memBytes})
	s.k = kernel.New(mem, s.clock, sim.DECstation5000(), kernel.Config{})
	if name == "concurrent" {
		s.k.SetScheduler(kernel.NewConcurrentScheduler(s.k))
	}

	var fixed *manager.FixedPool
	if name == "replace" {
		var err error
		if fixed, err = manager.NewFixedPool(s.k, sz.ReplaceFrames, 0); err != nil {
			return nil, err
		}
	} else {
		// The lane fast paths, as in experiments.PlaneThroughput.
		policy := spcm.DefaultPolicy()
		policy.LaneCacheRefill = 512
		s.pool = spcm.New(s.k, policy)
	}

	for i := 0; i < nm; i++ {
		store := storage.NewStore(s.clock, storage.NetworkServer(), frameSize)
		cfg := manager.Config{
			Name:    fmt.Sprintf("%s-manager-%d", name, i),
			Backing: manager.NewSwapBacking(store),
		}
		if name == "replace" {
			cfg.Source = fixed
			pol, err := manager.NewPolicy("clock")
			if err != nil {
				return nil, err
			}
			cfg.Policy = pol
		} else {
			cfg.Delivery = kernel.DeliverSeparateProcess
			cfg.Source = s.pool
			cfg.RequestBatch = 32
			cfg.LanePrefetch = 256
			if name == "extent" {
				cfg.ExtentOrder = extentOrder
			}
		}
		var t *track
		if tr != nil {
			t = tr.newTrack()
			s.tracks = append(s.tracks, t)
			cfg.Backing = &tracedBacking{b: cfg.Backing, t: t}
			if cfg.Policy == nil {
				cfg.Policy = manager.NewClockPolicy()
			}
			cfg.Policy = &tracedPolicy{p: cfg.Policy, t: t}
			if s.pool != nil {
				cfg.Source = &tracedSPCM{pool: s.pool, t: t}
			}
		}
		g, err := manager.NewGeneric(s.k, cfg)
		if err != nil {
			return nil, err
		}
		resident := sz.FillPages / nm
		if name == "replace" {
			resident = int(sz.ReplaceFrames) + 8
		}
		g.PresizeResident(resident)
		if s.pool != nil {
			s.pool.Register(g, g.ManagerName(), 1e9)
		}
		s.mgrs = append(s.mgrs, g)
		if t != nil {
			s.traced = append(s.traced, &tracedManager{g: g, t: t})
		}
		s.segs = append(s.segs, nil)
		if err := s.newSegment(i); err != nil {
			return nil, err
		}
		if s.pool != nil {
			if err := g.EnsureFree(8); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// newSegment gives manager i a fresh, empty segment.
func (s *faultSys) newSegment(i int) error {
	seg, err := s.mgrs[i].CreateManagedSegment(fmt.Sprintf("%s-%d-%d", s.name, i, s.epochs))
	if err != nil {
		return err
	}
	if s.traced != nil {
		s.k.SetSegmentManager(seg, s.traced[i])
	}
	s.segs[i] = seg
	return nil
}

// withSuperpages runs fn with the process-wide superpage switch set for
// this workload and restores it afterwards.
func (s *faultSys) withSuperpages(fn func()) {
	prev := kernel.SuperpagesEnabled()
	kernel.SetSuperpages(s.name == "extent")
	defer kernel.SetSuperpages(prev)
	fn()
}

func (s *faultSys) snapshot() counts {
	k := s.k.Stats()
	c := counts{
		cFaults: k.Faults, cMigrateCalls: k.MigrateCalls, cMigratedPages: k.MigratedPages,
		cModifyCalls: k.ModifyCalls, cGetAttrCalls: k.GetAttrCalls,
		cTLBHits: k.TLBHits, cTLBMisses: k.TLBMisses,
		cHashHits: k.HashHits, cHashMisses: k.HashMisses, cHashSpills: k.HashSpills,
		cExtentPromotions: k.ExtentPromotions, cVectoredBatches: k.VectoredBatches,
	}
	for _, g := range s.mgrs {
		st := g.Stats()
		c[cMgrFaults] += st.Faults
		c[cFills] += st.Fills
		c[cFastRefaults] += st.FastRefaults
		c[cWritebacks] += st.Writebacks
		c[cReclaims] += st.Reclaims
	}
	if s.pool != nil {
		c[cRefused] = s.pool.Stats().Refused
	}
	return c
}

// drive issues accesses [lo, hi) of manager i's share of the epoch and
// reports how many failed. at maps an index to its page and access type.
func (s *faultSys) drive(i int, lo, hi int64, at func(j int64) (int64, kernel.AccessType)) (failed int64) {
	seg := s.segs[i]
	if s.tracks == nil {
		for j := lo; j < hi; j++ {
			page, a := at(j)
			if err := s.k.Access(seg, page, a); err != nil {
				failed++
			}
		}
		return failed
	}
	t := s.tracks[i]
	for j := lo; j < hi; j++ {
		page, a := at(j)
		t.begin(spanAccess)
		err := s.k.Access(seg, page, a)
		t.end(1)
		if err != nil {
			failed++
		}
	}
	return failed
}

func (s *faultSys) epoch() (res epochResult) {
	s.withSuperpages(func() {
		if s.name == "replace" {
			res = s.replaceEpoch()
		} else {
			res = s.fillEpoch()
		}
	})
	return res
}

func (s *faultSys) reset() (failed int64) {
	s.epochs++
	if s.name == "replace" {
		// The cache never outgrows its pool.
		if int64(s.mgrs[0].ResidentPages()) > s.sz.ReplaceFrames {
			failed++
		}
		return failed
	}
	s.withSuperpages(func() { failed = s.fillReset() })
	return failed
}

func firstTouch(j int64) (int64, kernel.AccessType) { return j, kernel.Write }

// fillEpoch first-touches every page of each manager's fresh segment.
func (s *faultSys) fillEpoch() epochResult {
	per := int64(s.sz.FillPages / len(s.mgrs))
	res := epochResult{ops: per * int64(len(s.mgrs))}
	before, sim0 := s.snapshot(), s.clock.Now()
	if len(s.mgrs) == 1 {
		start := time.Now()
		res.failed = s.drive(0, 0, per, firstTouch)
		res.wall = time.Since(start)
	} else {
		// One driver goroutine per manager; the epoch ends when the last
		// driver is done.
		failed := make([]int64, len(s.mgrs))
		var wg sync.WaitGroup
		start := time.Now()
		for i := range s.mgrs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				failed[i] = s.drive(i, 0, per, firstTouch)
			}(i)
		}
		wg.Wait()
		res.wall = time.Since(start)
		for _, f := range failed {
			res.failed += f
		}
	}
	res.simTime = s.clock.Now() - sim0
	res.count = s.snapshot().sub(before)
	return res
}

// fillReset checks every touched page is resident, then deletes the segments,
// returns the frames and creates fresh segments.
func (s *faultSys) fillReset() (failed int64) {
	per := int64(s.sz.FillPages / len(s.mgrs))
	for i, g := range s.mgrs {
		seg := s.segs[i]
		for p := int64(0); p < per; p++ {
			if !seg.HasPage(p) {
				failed++
			}
		}
		if s.tracks != nil {
			s.tracks[i].begin(spanDelete)
		}
		err := s.k.DeleteSegment(kernel.AppCred, seg)
		if s.tracks != nil {
			s.tracks[i].end(per)
		}
		if err != nil {
			failed++
		}
		if _, err := g.ReturnFreeFrames(s.sz.FillPages + 1024); err != nil {
			failed++
		}
		if err := s.newSegment(i); err != nil {
			failed++
		}
	}
	return failed
}

// replaceEpoch replays the seeded reference string against the warm cache.
func (s *faultSys) replaceEpoch() epochResult {
	res := epochResult{ops: int64(len(s.refs))}
	before, sim0 := s.snapshot(), s.clock.Now()
	start := time.Now()
	res.failed = s.drive(0, 0, res.ops, func(j int64) (int64, kernel.AccessType) {
		if s.writes[j] {
			return s.refs[j], kernel.Write
		}
		return s.refs[j], kernel.Read
	})
	res.wall = time.Since(start)
	res.simTime = s.clock.Now() - sim0
	res.count = s.snapshot().sub(before)
	// The manager saw every fault the kernel delivered.
	if res.count[cFaults] != res.count[cMgrFaults] {
		res.failed++
	}
	return res
}

func (s *faultSys) check() (failed int64) {
	if s.pool != nil {
		if err := s.pool.CheckInvariants(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
			failed++
		}
	}
	if err := s.k.CheckFrameConservation(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
		failed++
	}
	return failed
}

func (s *faultSys) close() { s.k.Scheduler().Stop() }

// ---- tables ----

// tablesSys is the default cmd/reproduce run: Tables 1, 2-3 and 4 through
// the harness at par=1. One epoch is one pass; there is no state to keep
// warm beyond the Go runtime's.
type tablesSys struct {
	seed   uint64
	golden []byte // nil unless seed is the default
}

// tablesTxns is the number of transactions one pass of Table 4 runs, over
// all its memory configurations.
func tablesTxns() int64 {
	return int64(db.DefaultParams().Transactions) * int64(len(db.PaperTable4()))
}

func newTables(seed uint64) (*tablesSys, error) {
	s := &tablesSys{seed: seed}
	if seed == defaultSeed {
		// Read only; the golden file belongs to internal/experiments.
		g, err := os.ReadFile(goldenPath)
		if err != nil {
			return nil, fmt.Errorf("tables: %w", err)
		}
		s.golden = g
	}
	return s, nil
}

func (s *tablesSys) epoch() epochResult {
	tasks := []harness.Task[*experiments.Report]{
		{Name: "table1", Run: experiments.Table1},
		{Name: "tables2-3", Run: experiments.Tables23},
		{Name: "table4", Run: func() (*experiments.Report, error) { return experiments.Table4(0, s.seed) }},
	}
	start := time.Now()
	results := harness.Run(tasks, 1)
	res := epochResult{wall: time.Since(start)}

	var out bytes.Buffer
	var errSum float64
	var errN int
	for i, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "bench: tables: %s: %v\n", r.Name, r.Err)
			res.failed++
			continue
		}
		rep := r.Value
		if !rep.OK {
			res.failed++
		}
		res.ops += rep.Events
		res.tableWall[i], res.tableEvents[i] = r.Wall, rep.Events
		out.Write(rep.Output)
		for _, m := range rep.Measures {
			if m.Paper != 0 {
				d := (m.Measured - m.Paper) / m.Paper
				if d < 0 {
					d = -d
				}
				errSum += d
				errN++
			}
		}
	}
	if errN > 0 {
		res.paperErr = 100 * errSum / float64(errN)
	}
	if s.golden != nil && !bytes.Equal(out.Bytes(), s.golden) {
		fmt.Fprintln(os.Stderr, "bench: tables: output differs from reproduce.golden")
		res.failed++
	}
	if res.ops == 0 {
		res.ops = 1 // every table failed; keep the failure fraction defined
	}
	return res
}

func (s *tablesSys) reset() int64 { return 0 }
func (s *tablesSys) check() int64 { return 0 }
func (s *tablesSys) close()       {}
