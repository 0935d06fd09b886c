package db

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"epcm/internal/sim"
)

// raceEnabled is set under -race (race_test.go), whose runtime allocates on
// its own account.
var raceEnabled bool

// diffResults names the first Result field in which a run differs from the
// reference's — the Series compared sample by sample — or returns "".
func diffResults(got, want *Result) string {
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		a, b := g.Field(i).Interface(), w.Field(i).Interface()
		if reflect.DeepEqual(a, b) {
			continue
		}
		if s, ok := a.(sim.Series); ok {
			r := b.(sim.Series)
			a, b = s.String(), r.String()
		}
		return fmt.Sprintf("%s: %v, reference %v", g.Type().Field(i).Name, a, b)
	}
	return ""
}

// matchReference runs cfg under p on System and on the reference and fails
// t at the first Result field, or the event count, in which they differ.
func matchReference(t *testing.T, cfg MemoryConfig, p Params) {
	t.Helper()
	s := New(cfg, p)
	got := s.Run()
	want, wantEvents := refRun(cfg, p)
	if d := diffResults(got, want); d != "" {
		t.Fatalf("%v, %+v: %s", cfg, p, d)
	}
	if events := s.env.EventsProcessed(); events != wantEvents {
		t.Fatalf("%v, %+v: %d events, reference %d", cfg, p, events, wantEvents)
	}
}

// TestTxnMachineMatchesReference: a transaction run as a record pushes the
// events its straight-line form pushes, in the same order, so every Result
// field and the event count equal the reference's — in every configuration,
// at four seeds.
func TestTxnMachineMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1992} {
		p := DefaultParams()
		p.Seed = seed
		if testing.Short() {
			p.Transactions, p.Warmup = 1000, 100
		}
		for _, cfg := range allConfigs {
			matchReference(t, cfg, p)
		}
	}
}

// FuzzTable4Machine holds System.Run to the reference off the paper's
// parameters: one to eight processors, light to saturating load, no joins
// to all joins, pressure from every transaction to rare, evictions from
// none to 299 pages, and a handful of account pages, so DebitCredits queue
// on one another's page locks.
func FuzzTable4Machine(f *testing.F) {
	f.Add(uint64(1992), uint8(5), uint16(35), uint8(5), uint16(49), uint16(256), uint16(63), uint16(299))
	f.Add(uint64(7), uint8(0), uint16(195), uint8(50), uint16(3), uint16(20), uint16(3), uint16(200))
	f.Add(uint64(42), uint8(1), uint16(120), uint8(100), uint16(1), uint16(2), uint16(0), uint16(150))
	f.Add(uint64(3), uint8(7), uint16(60), uint8(0), uint16(10), uint16(0), uint16(9), uint16(250))
	f.Fuzz(func(t *testing.T, seed uint64, procs uint8, tps uint16, joinPct uint8, period, pagesOut, accounts, txns uint16) {
		p := DefaultParams()
		p.Seed = seed
		p.Processors = 1 + int(procs%8)
		p.ArrivalTPS = float64(5 + tps%200)
		p.JoinFraction = float64(joinPct%101) / 100
		p.PressurePeriod = 1 + int(period%100)
		p.IndexPagesOut = int(pagesOut % 300)
		p.AccountPages = 1 + int(accounts%64)
		p.Transactions = 1 + int(txns%300)
		p.Warmup = p.Transactions / 10
		for _, cfg := range allConfigs {
			matchReference(t, cfg, p)
		}
	})
}

// TestForeignLockDeadlocks: with the database X-locked by an owner outside
// the run, every transaction waits at its first request and none completes,
// so the run reports all of them deadlocked.
func TestForeignLockDeadlocks(t *testing.T) {
	p := fastParams()
	p.Transactions = 50
	for _, cfg := range allConfigs {
		s := New(cfg, p)
		s.locks.acquire(s.locks.newOwner(), &s.dbLock, X, nil) // never blocks: the lock is free
		r := s.Run()
		if r.Deadlocked != p.Transactions || r.CompletedTxns != 0 {
			t.Fatalf("%v: %d deadlocked, %d completed; want %d and 0", cfg, r.Deadlocked, r.CompletedTxns, p.Transactions)
		}
		if q := len(s.dbLock.queue); q != p.Transactions {
			t.Fatalf("%v: %d requests queued on db, want %d", cfg, q, p.Transactions)
		}
	}
}

// TestRunLeavesNoWaiters: when a run returns, no lock, processor or disk
// has a waiter, the processors and the disk are all free, and no event is
// left to dispatch.
func TestRunLeavesNoWaiters(t *testing.T) {
	p := fastParams()
	p.Transactions = 300
	for _, cfg := range allConfigs {
		s := New(cfg, p)
		if r := s.Run(); r.Deadlocked != 0 || r.CompletedTxns != 300 {
			t.Fatalf("%v: %d deadlocked, %d completed", cfg, r.Deadlocked, r.CompletedTxns)
		}
		s.eachLock(func(name string, l *lock) {
			if len(l.queue) != 0 {
				t.Errorf("%v: %d waiters on %s", cfg, len(l.queue), name)
			}
		})
		for _, st := range []*station{s.cpus, s.disk} {
			if st.inUse != 0 || st.head != len(st.waiting) {
				t.Errorf("%v: a station left with %d units in use and %d waiting", cfg, st.inUse, len(st.waiting)-st.head)
			}
		}
		events := s.env.EventsProcessed()
		if s.env.Run(); s.env.EventsProcessed() != events {
			t.Errorf("%v: %d events left after the run", cfg, s.env.EventsProcessed()-events)
		}
	}
}

// TestRunAllocationsPerTransaction pins what a run allocates: the records
// are one slice, each resumes through one bound callback and the locks are
// slots of the System, so a transaction costs that callback and its share of
// queue, hold-list and sample growth (about 1.12 at the paper's parameters).
func TestRunAllocationsPerTransaction(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := DefaultParams()
	for _, cfg := range allConfigs {
		allocs := testing.AllocsPerRun(2, func() { New(cfg, p).Run() })
		if per := allocs / float64(p.Transactions); per > 1.25 {
			t.Errorf("%v: %.3f allocations per transaction, want at most 1.25", cfg, per)
		}
	}
}

// BenchmarkTable4 times Table 4's four runs at the paper's parameters and
// reports them per transaction. RunAll runs the four side by side, so ns/txn
// is wall time over the fan-out: at -cpu 1 it is the CPU a transaction
// costs, above that it falls with the cores the configurations spread over.
func BenchmarkTable4(b *testing.B) {
	p := DefaultParams()
	txns := float64(b.N * p.Transactions * len(allConfigs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunAll(p)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/txns, "ns/txn")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/txns, "allocs/txn")
}
