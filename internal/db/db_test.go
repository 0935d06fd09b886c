package db

import (
	"errors"
	"runtime"
	"strconv"
	"testing"
	"time"

	"epcm/internal/harness"
)

// fastParams shrinks the run for unit tests that don't assert Table 4
// values.
func fastParams() Params {
	p := DefaultParams()
	p.Transactions = 1000
	p.Warmup = 100
	return p
}

func TestRunCompletesAllTransactions(t *testing.T) {
	for _, cfg := range allConfigs {
		r := New(cfg, fastParams()).Run()
		if r.Deadlocked != 0 {
			t.Fatalf("%v: %d processes deadlocked", cfg, r.Deadlocked)
		}
		if r.CompletedTxns != 1000 {
			t.Fatalf("%v: completed %d of 1000", cfg, r.CompletedTxns)
		}
		if r.Responses.Count() != 900 {
			t.Fatalf("%v: %d measured responses, want 900 after warmup", cfg, r.Responses.Count())
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := New(IndexWithPaging, fastParams()).Run()
	b := New(IndexWithPaging, fastParams()).Run()
	if a.Average() != b.Average() || a.Worst() != b.Worst() || a.Faults != b.Faults {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", a.Average(), a.Worst(), b.Average(), b.Worst())
	}
}

func TestPagingFaultAccounting(t *testing.T) {
	p := fastParams()
	r := New(IndexWithPaging, p).Run()
	if r.PressureEvents == 0 {
		t.Fatal("no pressure events in 1000 transactions with period 500")
	}
	// Each pressure event evicts IndexPagesOut pages; each is paged back in
	// exactly once when a join next traverses the index. The final event may
	// land so late that no join runs afterwards, so allow one unpaged batch.
	max := r.PressureEvents * int64(p.IndexPagesOut)
	min := (r.PressureEvents - 1) * int64(p.IndexPagesOut)
	if r.Faults < min || r.Faults > max {
		t.Fatalf("faults = %d, want in [%d, %d] (%d events × %d pages)", r.Faults, min, max, r.PressureEvents, p.IndexPagesOut)
	}
	// The other configurations never fault.
	for _, cfg := range []MemoryConfig{NoIndex, IndexInMemory, IndexRegeneration} {
		if r2 := New(cfg, p).Run(); r2.Faults != 0 {
			t.Fatalf("%v faulted %d times", cfg, r2.Faults)
		}
	}
}

func TestRegenerationCountsRebuilds(t *testing.T) {
	r := New(IndexRegeneration, fastParams()).Run()
	if r.Regenerations == 0 {
		t.Fatal("no regenerations")
	}
	if r.Regenerations > r.PressureEvents {
		t.Fatalf("%d regenerations for %d pressure events", r.Regenerations, r.PressureEvents)
	}
}

// Table 4, full run. Each configuration must land near the paper's
// measurements; more importantly, the orderings and ratios that carry the
// paper's argument must hold exactly.
func TestTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 run")
	}
	results := RunAll(DefaultParams())
	byCfg := make(map[MemoryConfig]*Result)
	for _, r := range results {
		byCfg[r.Config] = r
	}
	paper := PaperTable4()

	within := func(what string, got, want time.Duration, tolPct int) {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		if diff*100 > want*time.Duration(tolPct) {
			t.Errorf("%s = %v, paper %v (tolerance ±%d%%)", what, got.Round(time.Millisecond), want, tolPct)
		}
	}
	// Averages track the paper closely.
	within("no-index avg", byCfg[NoIndex].Average(), paper[NoIndex][0], 15)
	within("in-memory avg", byCfg[IndexInMemory].Average(), paper[IndexInMemory][0], 15)
	within("paging avg", byCfg[IndexWithPaging].Average(), paper[IndexWithPaging][0], 15)
	within("regeneration avg", byCfg[IndexRegeneration].Average(), paper[IndexRegeneration][0], 20)
	// Worst cases are tail statistics; allow a wider band.
	within("in-memory worst", byCfg[IndexInMemory].Worst(), paper[IndexInMemory][1], 35)
	within("paging worst", byCfg[IndexWithPaging].Worst(), paper[IndexWithPaging][1], 35)
	within("regeneration worst", byCfg[IndexRegeneration].Worst(), paper[IndexRegeneration][1], 35)
	within("no-index worst", byCfg[NoIndex].Worst(), paper[NoIndex][1], 35)

	// The structural claims of §3.3:
	// 1. Indices in memory are an order of magnitude better than no index.
	if byCfg[NoIndex].Average() < 10*byCfg[IndexInMemory].Average() {
		t.Error("index benefit less than 10x")
	}
	// 2. A modest amount of paging eliminates most of the benefit.
	if byCfg[IndexWithPaging].Average() < 5*byCfg[IndexInMemory].Average() {
		t.Error("paging did not erase the index benefit")
	}
	// 3. Regeneration restores it: "an order of magnitude less than the
	//    paging case".
	if byCfg[IndexWithPaging].Average() < 9*byCfg[IndexRegeneration].Average() {
		t.Errorf("regeneration not ~10x better than paging: %v vs %v",
			byCfg[IndexWithPaging].Average(), byCfg[IndexRegeneration].Average())
	}
	// 4. "...and is only 27% worse than the index-in-memory case" — allow
	//    10-45%.
	ratio := float64(byCfg[IndexRegeneration].Average()) / float64(byCfg[IndexInMemory].Average())
	if ratio < 1.05 || ratio > 1.45 {
		t.Errorf("regeneration/in-memory = %.2f, paper 1.27", ratio)
	}
}

// TestRunAllMatchesRun: RunAll's configurations share one arrival draw and
// run side by side, yet each result equals the configuration run alone,
// field by field and sample by sample. RunAll sorts Responses on the
// configuration's worker, so the lone run's is sorted before the compare;
// DebitCredit and Joins keep completion order on both sides.
func TestRunAllMatchesRun(t *testing.T) {
	for _, seed := range []uint64{DefaultParams().Seed, 7, 42} {
		p := DefaultParams()
		p.Seed = seed
		got := RunAll(p)
		if len(got) != len(allConfigs) {
			t.Fatalf("seed %d: %d results, want %d", seed, len(got), len(allConfigs))
		}
		for i, cfg := range allConfigs {
			want := New(cfg, p).Run()
			want.Responses.Sort()
			if got[i].Config != cfg {
				t.Fatalf("seed %d: result %d is %v, want %v", seed, i, got[i].Config, cfg)
			}
			if d := diffResults(got[i], want); d != "" {
				t.Errorf("seed %d, %v: %s", seed, cfg, d)
			}
		}
	}
}

// TestRunAllPanicReachesCaller: a configuration that panics on its worker
// panics again on RunAll's caller, so a harness task running RunAll comes
// back with Err set and the process lives on.
func TestRunAllPanicReachesCaller(t *testing.T) {
	p := fastParams()
	p.PressurePeriod = 0 // pressure's txSeq % 0 divides by zero
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		RunAll(p)
	}()
	err, _ := recovered.(error)
	var pe *harness.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunAll's caller recovered %v, want a *harness.PanicError", recovered)
	}
	if _, ok := pe.Value.(runtime.Error); !ok {
		t.Fatalf("the worker's panic was %v, want the division by zero", pe.Value)
	}
	res := harness.Run([]harness.Task[[]*Result]{{Name: "table4", Run: func() ([]*Result, error) {
		return RunAll(p), nil
	}}}, 1)
	if !errors.As(res[0].Err, &pe) || res[0].Value != nil {
		t.Fatalf("harness task running RunAll: %+v, want Err set and no value", res[0])
	}
}

// Lock-hold amplification: the worst paging response must be dominated by
// the 1 MB page-in stall (256 × 15 ms ≈ 3.84 s) — the paper's point that
// fault latency multiplies through held locks.
func TestPagingWorstCaseIsTheStall(t *testing.T) {
	p := DefaultParams()
	r := New(IndexWithPaging, p).Run()
	stall := time.Duration(p.IndexPagesOut) * p.FaultDelay
	if r.Worst() < stall {
		t.Fatalf("worst %v below the raw stall %v", r.Worst(), stall)
	}
	if r.Worst() > 2*stall {
		t.Fatalf("worst %v more than twice the stall %v", r.Worst(), stall)
	}
}

// DebitCredit transactions — which never fault themselves — suffer through
// the lock convoys that paging creates. Their mean response in the paging
// configuration must far exceed the in-memory configuration.
func TestPagingConvoysHitDebitCredits(t *testing.T) {
	p := DefaultParams()
	paging := New(IndexWithPaging, p).Run()
	inMem := New(IndexInMemory, p).Run()
	if paging.DebitCredit.Mean() < 5*inMem.DebitCredit.Mean() {
		t.Fatalf("DebitCredit under paging %v vs in-memory %v: convoy effect missing",
			paging.DebitCredit.Mean(), inMem.DebitCredit.Mean())
	}
}

func TestHigherArrivalRateDegrades(t *testing.T) {
	p := fastParams()
	slow := New(IndexInMemory, p).Run()
	p.ArrivalTPS = 120
	fast := New(IndexInMemory, p).Run()
	if fast.Average() <= slow.Average() {
		t.Fatalf("tripling load did not increase response: %v vs %v", fast.Average(), slow.Average())
	}
}

func TestMoreProcessorsHelpNoIndex(t *testing.T) {
	p := fastParams()
	r6 := New(NoIndex, p).Run()
	p.Processors = 12
	r12 := New(NoIndex, p).Run()
	if r12.Average() >= r6.Average() {
		t.Fatalf("doubling processors did not help: %v vs %v", r12.Average(), r6.Average())
	}
}

// eachLock calls fn with every lock s's transactions take and a name for
// it: the fixed four, then every account page's.
func (s *System) eachLock(fn func(name string, l *lock)) {
	fn("db", &s.dbLock)
	fn("rel:accounts", &s.relAccounts)
	fn("rel:summary", &s.relSummary)
	fn("idx:accounts", &s.idxAccounts)
	for page := range s.pageLocks {
		fn("page:accounts/"+strconv.Itoa(page), &s.pageLocks[page])
	}
}

// TestSystemLeavesNoHolds: transactions hold their locks on records the
// manager lends them. After a run every lock's per-mode counts are zero,
// nothing is queued, and every record handed out is back on the free list,
// once.
func TestSystemLeavesNoHolds(t *testing.T) {
	for _, cfg := range allConfigs {
		s := New(cfg, fastParams())
		if r := s.Run(); r.Deadlocked != 0 || r.CompletedTxns != 1000 {
			t.Fatalf("%v: %d deadlocked, %d completed", cfg, r.Deadlocked, r.CompletedTxns)
		}
		s.eachLock(func(name string, l *lock) {
			if l.held != [4]int32{} || len(l.queue) != 0 {
				t.Errorf("%v: %s left with holds %v and %d queued", cfg, name, l.held, len(l.queue))
			}
		})
		m := s.locks
		if st := m.Stats(); st.Released != st.Acquires {
			t.Errorf("%v: %d acquires, %d released", cfg, st.Acquires, st.Released)
		}
		if m.records == 0 || len(m.heldFree) != m.records {
			t.Errorf("%v: %d records made, %d back on the free list", cfg, m.records, len(m.heldFree))
		}
		back := make(map[*holdList]bool)
		for _, hl := range m.heldFree {
			if back[hl] || len(hl.holds) != 0 {
				t.Errorf("%v: a record came back twice or still listing %d holds", cfg, len(hl.holds))
			}
			back[hl] = true
		}
	}
}

// TestTable4QueueShape pins what the paper's run asks of the event queue:
// all 4 000 arrivals are scheduled up front in ascending time, so they ride
// the queue's FIFO lane, and only the transactions in flight — sleeping on a
// processor or the disk, or just woken — reach its heap. The event counts
// are the model's (Table 4 through the bench is their sum, 45 387).
func TestTable4QueueShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 run")
	}
	events := map[MemoryConfig]int64{NoIndex: 13482, IndexInMemory: 8965, IndexWithPaging: 13822, IndexRegeneration: 9118}
	p := DefaultParams()
	for _, cfg := range allConfigs {
		s := New(cfg, p)
		s.Run()
		if high := s.env.Shard(0).HeapHighWater(); high == 0 || high > 256 {
			t.Errorf("%v: heap high-water %d with %d arrivals scheduled, want 1..256", cfg, high, p.Transactions)
		}
		if got := s.env.EventsProcessed(); got != events[cfg] {
			t.Errorf("%v: %d events processed, want %d", cfg, got, events[cfg])
		}
	}
}
