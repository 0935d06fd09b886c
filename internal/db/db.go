package db

import (
	"fmt"
	"time"

	"epcm/internal/harness"
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
	Deadlocked       int // transactions left waiting (must be 0)
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

// System is the simulated transaction-processing system. It owns the
// locks its transactions take as plain slots — the database, the two
// relations and the account index as fields, the account pages as a slice
// indexed by page — and hands the lock manager pointers to them, so a run
// hashes no lock name and allocates no lock.
type System struct {
	p      Params
	cfg    MemoryConfig
	clock  *sim.Clock
	env    *sim.Env
	cpus   *station
	disk   *station
	locks  *LockManager
	index  indexState
	result Result
	txSeq  int
	// The locks transactions take: the fixed four, then one per account
	// page, allocated with the system.
	dbLock, relAccounts, relSummary, idxAccounts lock
	pageLocks                                    []lock
}

// New builds a system for one configuration.
func New(cfg MemoryConfig, p Params) *System {
	clock := &sim.Clock{}
	env := sim.NewSerialEnv(clock)
	locks := &LockManager{Barging: true} // reader preference: concurrent relation scans share S locks
	s := &System{
		p:         p,
		cfg:       cfg,
		clock:     clock,
		env:       env,
		cpus:      &station{capacity: p.Processors},
		disk:      &station{capacity: 1},
		locks:     locks,
		index:     indexState{valid: true},
		pageLocks: make([]lock, p.AccountPages),
	}
	s.result.Config = cfg
	return s
}

// arrival is one transaction's draw from the arrival stream. A stream is
// read only, so every configuration of a RunAll reads the one draw.
type arrival struct {
	at           time.Duration
	accountPage  int
	isJoin       bool
	touchesIndex bool
}

// arrivals draws p's arrival stream: Poisson arrivals at p.ArrivalTPS, each
// a join with probability p.JoinFraction, on a uniform account page, and
// touching the index with probability p.DCIndexProb.
func arrivals(p Params) []arrival {
	rng := sim.NewRNG(p.Seed)
	stream := make([]arrival, p.Transactions)
	at := time.Duration(0)
	for i := range stream {
		at += time.Duration(rng.Exp(1e9/p.ArrivalTPS)) * time.Nanosecond
		a := &stream[i]
		a.at = at
		a.isJoin = rng.Bool(p.JoinFraction)
		a.accountPage = rng.Intn(p.AccountPages)
		a.touchesIndex = rng.Bool(p.DCIndexProb)
	}
	return stream
}

// Run draws the arrival stream, runs every transaction to completion and
// returns the result. A transaction still open when no event is left waits
// for a grant nobody will make: it is counted as deadlocked.
func (s *System) Run() *Result { return s.run(arrivals(s.p)) }

// run runs the transactions of stream, which s only reads.
func (s *System) run(stream []arrival) *Result {
	txns := make([]txn, len(stream))
	for i := range txns {
		t := &txns[i]
		t.arrival, t.s, t.seq = &stream[i], s, i
		t.resume = t.run
		s.env.At(t.at, t.resume)
	}
	s.env.Run()
	s.result.Deadlocked = s.p.Transactions - s.result.CompletedTxns
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

// step is a point in a transaction's program at which it may wait.
type step uint8

const (
	arrive step = iota
	// DebitCredit, the 95% case: update one account record (and, in indexed
	// configurations, the account index, under an intention lock that is
	// compatible with other updaters but not with a reader holding the
	// index S lock).
	dcRelation
	dcPage
	dcIndex
	// Join, the 5% case: join two relations to update a third. With an
	// index it traverses the account index under an S lock; without, it
	// scans.
	joinRelation
	joinSummary
	joinIndex
	joinFault
	joinRegenerate
	joinRegenerated
	// Holding a station's unit: take it, hold it for d, give it back.
	unitTake
	unitHold
	unitGive
	commit
)

// txn is one transaction: its draw from the arrival stream and where its
// program stands. A wait is one event — At(arrival), At(now+d) for a delay,
// At(now) for a grant or hand-over — whose callback is resume, and run goes
// on from pc. These are the events and the order a process per transaction
// would push, so the run is the same, without a coroutine switch per event.
type txn struct {
	*arrival // shared with every other run of the stream: never written
	s        *System
	resume   func() // t.run, bound once
	owner    *holdList
	start    time.Duration
	// The station use under way: hold a unit of st for d, then go on at then.
	st       *station
	d        time.Duration
	seq      int
	pc, then step
}

// wake resumes t now: its lock or station unit has been handed to it.
func (t *txn) wake() { t.s.env.At(t.s.env.Now(), t.resume) }

// lock requests l in mode for t, reporting whether it was granted at once.
func (t *txn) lock(l *lock, mode Mode) bool { return t.s.locks.acquire(t.owner, l, mode, t) }

// use sets t to hold a unit of st for d, then go on at then.
func (t *txn) use(st *station, d time.Duration, then step) {
	t.st, t.d, t.then, t.pc = st, d, then, unitTake
}

// run carries t's program forward until it waits or commits. Each step sets
// pc to the step after it before it may wait, and returns if it does.
func (t *txn) run() {
	s := t.s
	for {
		switch t.pc {
		case arrive:
			t.start = s.env.Now()
			s.pressure()
			t.owner = s.locks.newOwner()
			t.pc = dcRelation
			if t.isJoin {
				t.pc = joinRelation
			}
			if !t.lock(&s.dbLock, IX) {
				return
			}
		case dcRelation:
			t.pc = dcPage
			if !t.lock(&s.relAccounts, IX) {
				return
			}
		case dcPage:
			t.pc = dcIndex
			if !t.lock(&s.pageLocks[t.accountPage], X) {
				return
			}
		case dcIndex:
			t.use(s.cpus, s.p.DebitCreditCPU, commit)
			if s.cfg != NoIndex && t.touchesIndex && !t.lock(&s.idxAccounts, IX) {
				return
			}
		case joinRelation:
			t.pc = joinSummary
			if !t.lock(&s.relAccounts, IS) {
				return
			}
		case joinSummary:
			t.pc = joinIndex
			if !t.lock(&s.relSummary, IX) {
				return
			}
		case joinIndex:
			l, mode := &s.idxAccounts, S
			switch s.cfg {
			case NoIndex:
				// Scan join: without an index the join reads every record
				// of the accounts relation, so hierarchical locking
				// escalates it to a relation-level S lock — blocking every
				// DebitCredit writer (IX) for the duration of the scan.
				// This coupling, not just the longer computation, is what
				// makes the no-index configuration slow.
				l = &s.relAccounts
				t.use(s.cpus, s.p.JoinScanCPU, commit)
			case IndexInMemory:
				t.use(s.cpus, s.p.JoinIndexCPU, commit)
			case IndexWithPaging:
				t.pc = joinFault
			case IndexRegeneration:
				t.use(s.cpus, s.p.JoinIndexCPU, commit)
				if !s.index.valid {
					// The application knows the index is gone; rebuild it
					// in memory under an exclusive lock. No I/O at all.
					mode, t.pc = X, joinRegenerate
				}
			}
			if !t.lock(l, mode) {
				return
			}
		case joinFault:
			// Transparent paging: traversal faults on every evicted page,
			// with the index lock held — exactly the lock-holding fault the
			// paper warns about. Faults serialize at the disk.
			if s.index.missingPages > 0 {
				s.index.missingPages--
				s.result.Faults++
				t.use(s.disk, s.p.FaultDelay, joinFault)
			} else {
				t.use(s.cpus, s.p.JoinIndexCPU, commit)
			}
		case joinRegenerate:
			if s.index.valid { // another join rebuilt it while t waited
				t.use(s.cpus, s.p.JoinIndexCPU, commit)
			} else {
				t.use(s.cpus, s.p.RegenerateCPU, joinRegenerated)
			}
		case joinRegenerated:
			s.index.valid = true
			s.result.Regenerations++
			t.use(s.cpus, s.p.JoinIndexCPU, commit)
		case unitTake:
			t.pc = unitHold
			if !t.st.take(t) {
				return
			}
		case unitHold:
			t.pc = unitGive
			s.env.At(s.env.Now()+t.d, t.resume)
			return
		case unitGive:
			t.st.give()
			t.pc = t.then
		case commit:
			s.locks.releaseAll(t.owner)
			resp := s.env.Now() - t.start
			s.result.CompletedTxns++
			if t.seq >= s.p.Warmup {
				s.result.Responses.Add(resp)
				if t.isJoin {
					s.result.Joins.Add(resp)
				} else {
					s.result.DebitCredit.Add(resp)
				}
			}
			return
		}
	}
}

// station is a bank of identical units served in FIFO order — the
// processors, or the disk. A transaction holds a unit from take to give.
type station struct {
	capacity, inUse int
	waiting         []*txn // from head on: waiting for a unit, oldest first
	head            int
}

// take gives t a unit and reports true, or queues t and reports false; the
// give that later hands t its unit resumes it.
func (st *station) take(t *txn) bool {
	if st.inUse < st.capacity {
		st.inUse++
		return true
	}
	st.waiting = append(st.waiting, t)
	return false
}

// give returns a unit, handing it straight to the oldest waiter if any.
func (st *station) give() {
	if st.head == len(st.waiting) {
		st.inUse--
		return
	}
	t := st.waiting[st.head]
	st.waiting[st.head] = nil
	if st.head++; st.head == len(st.waiting) {
		st.waiting, st.head = st.waiting[:0], 0
	}
	t.wake()
}

var allConfigs = []MemoryConfig{NoIndex, IndexInMemory, IndexWithPaging, IndexRegeneration}

// RunAll runs all four configurations with the same parameters, returning
// results in Table 4 order. The configurations share no mutable state — the
// arrival stream is drawn once and only read — so they run side by side on
// the harness. A configuration that panics panics again here, on the
// caller's goroutine, with the task's *harness.PanicError.
func RunAll(p Params) []*Result {
	stream := arrivals(p)
	tasks := make([]harness.Task[*Result], len(allConfigs))
	for i, cfg := range allConfigs {
		tasks[i] = harness.Task[*Result]{Name: cfg.String(), Run: func() (*Result, error) {
			r := New(cfg, p).run(stream)
			// Sort here, on this configuration's worker: otherwise the
			// first Percentile call sorts on the caller, after the fan-out.
			r.Responses.Sort()
			return r, nil
		}}
	}
	out := make([]*Result, len(tasks))
	for i, r := range harness.Run(tasks, 0) {
		if r.Err != nil {
			panic(r.Err)
		}
		out[i] = r.Value
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
