package db

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"epcm/internal/sim"
)

// MemoryConfig selects one of Table 4's four configurations.
type MemoryConfig int

const (
	// NoIndex performs joins by scanning the relations — the economical-
	// in-space, expensive-in-time algorithm.
	NoIndex MemoryConfig = iota
	// IndexInMemory keeps the join indices fully resident.
	IndexInMemory
	// IndexWithPaging uses indices, but the program's virtual memory
	// exceeds its physical allocation by 1 MB: the OS transparently evicts
	// a megabyte of index, which must be paged back in — under locks —
	// every ~500 transactions.
	IndexWithPaging
	// IndexRegeneration is the application-controlled alternative: told
	// that its allocation shrank by 1 MB, the DBMS *discards* an index
	// outright (no page-out, no page-in) and regenerates it in memory when
	// next needed.
	IndexRegeneration
)

func (c MemoryConfig) String() string {
	switch c {
	case NoIndex:
		return "No index"
	case IndexInMemory:
		return "Index in memory"
	case IndexWithPaging:
		return "Index with paging"
	case IndexRegeneration:
		return "Index regeneration"
	default:
		return fmt.Sprintf("MemoryConfig(%d)", int(c))
	}
}

// Params sets the simulation's workload and machine parameters. The
// defaults (DefaultParams) are the paper's §3.3 setup.
type Params struct {
	// Processors is the number of CPUs (6 of the SGI 4D/380's 8).
	Processors int
	// ArrivalTPS is the Poisson transaction arrival rate (40/s).
	ArrivalTPS float64
	// JoinFraction is the share of join transactions (0.05).
	JoinFraction float64
	// Transactions is the number of transactions to run (the measurement
	// horizon).
	Transactions int
	// Warmup transactions excluded from response statistics.
	Warmup int

	// DebitCreditCPU is a DebitCredit transaction's execution time.
	DebitCreditCPU time.Duration
	// JoinIndexCPU is an index join's execution time.
	JoinIndexCPU time.Duration
	// JoinScanCPU is a scan join's execution time (no index).
	JoinScanCPU time.Duration
	// RegenerateCPU is the in-memory index rebuild time.
	RegenerateCPU time.Duration
	// FaultDelay is one page fault's delay on the SGI 4D/380.
	FaultDelay time.Duration
	// IndexPagesOut is how many index pages the OS evicts per pressure
	// cycle (1 MB = 256 4 KB pages).
	IndexPagesOut int
	// PressurePeriod is the number of transactions between memory-pressure
	// events (the paper's "every 500 transactions").
	PressurePeriod int
	// AccountPages spreads DebitCredit record locks (conflict probability).
	AccountPages int
	// DCIndexProb is the probability a DebitCredit updates the indexed
	// relation (and therefore takes IX on the join index). Updates to the
	// other relations do not touch that index.
	DCIndexProb float64
	// Seed drives all randomness.
	Seed uint64
	// ShardedTime runs the event queue on the sharded virtual-time engine
	// with its one shard: the same (at, seq) event order as the serial
	// engine (the default), drained through the windowed machinery.
	ShardedTime bool
}

// DefaultParams is the paper's configuration.
func DefaultParams() Params {
	return Params{
		Processors:     6,
		ArrivalTPS:     40,
		JoinFraction:   0.05,
		Transactions:   4000, // 100 seconds of simulated load
		Warmup:         200,
		DebitCreditCPU: 18 * time.Millisecond,
		JoinIndexCPU:   150 * time.Millisecond,
		JoinScanCPU:    700 * time.Millisecond,
		RegenerateCPU:  380 * time.Millisecond,
		FaultDelay:     15 * time.Millisecond,
		IndexPagesOut:  256,
		PressurePeriod: 500,
		AccountPages:   2048,
		DCIndexProb:    0.75,
		Seed:           1992,
	}
}

// Result reports one configuration's outcome, Table 4 style.
type Result struct {
	Config           MemoryConfig
	Responses        sim.Series // all measured transaction responses
	DebitCredit      sim.Series
	Joins            sim.Series
	Faults           int64 // page faults taken (paging config)
	Regenerations    int64 // index rebuilds (regeneration config)
	PressureEvents   int64
	LockWaits        int64
	Deadlocked       int // processes left blocked (must be 0)
	CompletedTxns    int
	SimulatedSeconds float64
}

// Average and Worst give Table 4's two columns.
func (r *Result) Average() time.Duration { return r.Responses.Mean() }
func (r *Result) Worst() time.Duration   { return r.Responses.Max() }

// indexState models the join index's residency and validity.
type indexState struct {
	missingPages int  // pages evicted by the OS (paging config)
	valid        bool // false after the app discarded it (regeneration)
}

// System is the simulated transaction-processing system.
type System struct {
	p      Params
	cfg    MemoryConfig
	clock  *sim.Clock
	env    *sim.Env
	cpus   *sim.Resource
	disk   *sim.Resource
	locks  *LockManager
	rng    *sim.RNG
	index  indexState
	result Result
	txSeq  int
	// The locks transactions take, as handles: the fixed four resolved in
	// New, an account page's on its first use.
	dbLock, relAccounts, relSummary, idxAccounts *lock
	pageLocks                                    []*lock
}

// New builds a system for one configuration.
func New(cfg MemoryConfig, p Params) *System {
	clock := &sim.Clock{}
	env := sim.NewSerialEnv(clock)
	if p.ShardedTime {
		env = sim.NewShardedEnv(clock, 1, 0)
	}
	locks := NewLockManager(env)
	locks.Barging = true                                   // reader preference: concurrent relation scans share S locks
	locks.locks = make(map[string]*lock, 4+p.AccountPages) // sized once: the fixed four, a lock per page
	s := &System{
		p:         p,
		cfg:       cfg,
		clock:     clock,
		env:       env,
		cpus:      sim.NewResource(env, p.Processors),
		disk:      sim.NewResource(env, 1),
		locks:     locks,
		rng:       sim.NewRNG(p.Seed),
		index:     indexState{valid: true},
		pageLocks: make([]*lock, p.AccountPages),
	}
	lk := s.locks.lockFor
	s.dbLock, s.relAccounts, s.relSummary, s.idxAccounts = lk("db"), lk("rel:accounts"), lk("rel:summary"), lk("idx:accounts")
	s.result.Config = cfg
	return s
}

// Run generates the arrival stream, runs every transaction to completion
// and returns the result.
func (s *System) Run() *Result {
	at := time.Duration(0)
	for i := 0; i < s.p.Transactions; i++ {
		at += time.Duration(s.rng.Exp(1e9/s.p.ArrivalTPS)) * time.Nanosecond
		isJoin := s.rng.Bool(s.p.JoinFraction)
		accountPage := s.rng.Intn(s.p.AccountPages)
		touchesIndex := s.rng.Bool(s.p.DCIndexProb)
		seq := i
		s.env.GoAt(at, "txn", func(p *sim.Proc) {
			s.transaction(p, seq, isJoin, accountPage, touchesIndex)
		})
	}
	s.result.Deadlocked = s.env.Run()
	s.result.LockWaits = s.locks.Stats().Waits
	s.result.SimulatedSeconds = s.clock.Now().Seconds()
	return &s.result
}

// pressure applies the periodic memory-pressure event: in the paging
// configuration the OS silently evicts 1 MB of index; in the regeneration
// configuration the application is told its allocation shrank and chooses
// to discard the index entirely.
func (s *System) pressure() {
	s.txSeq++
	if s.txSeq%s.p.PressurePeriod != 0 {
		return
	}
	switch s.cfg {
	case IndexWithPaging:
		s.index.missingPages = s.p.IndexPagesOut
		s.result.PressureEvents++
	case IndexRegeneration:
		s.index.valid = false
		s.result.PressureEvents++
	}
}

// transaction runs one transaction as a simulated process, holding its locks
// on a record the manager lends it until the commit-point releaseAll.
func (s *System) transaction(p *sim.Proc, seq int, isJoin bool, accountPage int, touchesIndex bool) {
	start := p.Now()
	s.pressure()
	owner := s.locks.newOwner()
	if isJoin {
		s.join(p, owner)
	} else {
		s.debitCredit(p, owner, accountPage, touchesIndex)
	}
	resp := p.Now() - start
	s.result.CompletedTxns++
	if seq >= s.p.Warmup {
		s.result.Responses.Add(resp)
		if isJoin {
			s.result.Joins.Add(resp)
		} else {
			s.result.DebitCredit.Add(resp)
		}
	}
}

// debitCredit is the 95% case: update one account record (and, in indexed
// configurations, the account index, under an intention lock that is
// compatible with other updaters but not with a reader holding the index
// S lock).
func (s *System) debitCredit(p *sim.Proc, owner *holdList, accountPage int, touchesIndex bool) {
	s.locks.acquire(p, owner, s.dbLock, IX)
	s.locks.acquire(p, owner, s.relAccounts, IX)
	s.locks.acquire(p, owner, s.pageLock(accountPage), X)
	if s.cfg != NoIndex && touchesIndex {
		s.locks.acquire(p, owner, s.idxAccounts, IX)
	}
	s.compute(p, s.p.DebitCreditCPU)
	s.locks.releaseAll(owner)
}

// pageLock returns the lock of one accounts page.
func (s *System) pageLock(page int) *lock {
	l := s.pageLocks[page]
	if l == nil {
		l = s.locks.lockFor(pageLockName(page))
		s.pageLocks[page] = l
	}
	return l
}

// pageLockNames is the lock names of the paper configuration's account
// pages: each System names about a third of them on first use, four Systems
// a Table 4 pass, so the process builds the strings once, when first asked.
var pageLockNames = sync.OnceValue(func() []string {
	names := make([]string, DefaultParams().AccountPages)
	for page := range names {
		names[page] = "page:accounts/" + strconv.Itoa(page)
	}
	return names
})

func pageLockName(page int) string {
	if names := pageLockNames(); page < len(names) {
		return names[page]
	}
	return "page:accounts/" + strconv.Itoa(page)
}

// join is the 5% case: join two relations to update a third. With an index
// it traverses the account index under an S lock; without, it scans.
func (s *System) join(p *sim.Proc, owner *holdList) {
	s.locks.acquire(p, owner, s.dbLock, IX)
	s.locks.acquire(p, owner, s.relAccounts, IS)
	s.locks.acquire(p, owner, s.relSummary, IX)

	switch s.cfg {
	case NoIndex:
		// Scan join: without an index the join reads every record of the
		// accounts relation, so hierarchical locking escalates it to a
		// relation-level S lock — blocking every DebitCredit writer (IX)
		// for the duration of the scan. This coupling, not just the longer
		// computation, is what makes the no-index configuration slow.
		s.locks.acquire(p, owner, s.relAccounts, S)
		s.compute(p, s.p.JoinScanCPU)

	case IndexInMemory:
		s.locks.acquire(p, owner, s.idxAccounts, S)
		s.compute(p, s.p.JoinIndexCPU)

	case IndexWithPaging:
		s.locks.acquire(p, owner, s.idxAccounts, S)
		// Transparent paging: traversal faults on every evicted page, with
		// the index lock held — exactly the lock-holding fault the paper
		// warns about. Faults serialize at the disk.
		for s.index.missingPages > 0 {
			s.index.missingPages--
			s.result.Faults++
			s.disk.Acquire(p)
			p.Sleep(s.p.FaultDelay)
			s.disk.Release()
		}
		s.compute(p, s.p.JoinIndexCPU)

	case IndexRegeneration:
		if !s.index.valid {
			// The application knows the index is gone; rebuild it in
			// memory under an exclusive lock. No I/O at all.
			s.locks.acquire(p, owner, s.idxAccounts, X)
			if !s.index.valid {
				s.compute(p, s.p.RegenerateCPU)
				s.index.valid = true
				s.result.Regenerations++
			}
		} else {
			s.locks.acquire(p, owner, s.idxAccounts, S)
		}
		s.compute(p, s.p.JoinIndexCPU)
	}
	s.locks.releaseAll(owner)
}

// compute executes d of CPU time on one of the processors.
func (s *System) compute(p *sim.Proc, d time.Duration) {
	s.cpus.Acquire(p)
	p.Sleep(d)
	s.cpus.Release()
}

var allConfigs = []MemoryConfig{NoIndex, IndexInMemory, IndexWithPaging, IndexRegeneration}

// RunAll runs all four configurations with the same parameters, returning
// results in Table 4 order.
func RunAll(p Params) []*Result {
	out := make([]*Result, 0, len(allConfigs))
	for _, cfg := range allConfigs {
		out = append(out, New(cfg, p).Run())
	}
	return out
}

// PaperTable4 returns the paper's measured values for comparison.
func PaperTable4() map[MemoryConfig][2]time.Duration {
	return map[MemoryConfig][2]time.Duration{
		NoIndex:           {866 * time.Millisecond, 3770 * time.Millisecond},
		IndexInMemory:     {43 * time.Millisecond, 410 * time.Millisecond},
		IndexWithPaging:   {575 * time.Millisecond, 3930 * time.Millisecond},
		IndexRegeneration: {55 * time.Millisecond, 680 * time.Millisecond},
	}
}
