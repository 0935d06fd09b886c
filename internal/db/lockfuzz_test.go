package db

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"epcm/internal/sim"
)

// lockTable is what the fuzz and the benchmark drive on both managers.
type lockTable interface {
	Acquire(p *refProc, owner interface{}, name string, mode Mode)
	Release(owner interface{}, name string)
	ReleaseAll(owner interface{})
	Holders(name string) int
	QueueLen(name string) int
	Stats() LockStats
}

// lockOp is one step of an owner's script.
type lockOp struct {
	kind  int // opAcquire, opRelease, opReleaseAll or opSleep
	lock  string
	mode  Mode
	sleep time.Duration
}

const (
	opAcquire = iota
	opRelease
	opReleaseAll
	opSleep
)

// scriptLocks are the names a script draws from: few enough that owners
// collide, re-acquire what they hold and queue up behind one another. A
// script releases the last one but never acquires it.
var scriptLocks = []string{"db", "rel", "page", "never-acquired"}

// lockScripts draws one script per owner, up front, so that what an owner
// does next never depends on how the run interleaved.
func lockScripts(seed uint64, owners, steps int) [][]lockOp {
	rng := sim.NewRNG(seed + 1)
	scripts := make([][]lockOp, owners)
	for o := range scripts {
		for s := 0; s < steps; s++ {
			op := lockOp{lock: scriptLocks[rng.Intn(len(scriptLocks))], mode: Mode(rng.Intn(4))}
			switch r := rng.Intn(20); {
			case r < 11:
				op.kind, op.lock = opAcquire, scriptLocks[rng.Intn(len(scriptLocks)-1)]
			case r < 14:
				op.kind = opRelease
			case r < 16:
				op.kind = opReleaseAll
			default:
				op.kind, op.sleep = opSleep, time.Duration(rng.Intn(4))*time.Millisecond
			}
			scripts[o] = append(scripts[o], op)
		}
	}
	return scripts
}

// runLockScript plays the scripts, one process per owner, and returns a
// line per step: when, who, what, and after it the manager's counters and
// every lock's holders and queue length. An acquire's line is written when
// the owner has the lock, so the lines of a run are also its wake trace.
// Owners take locks in any order and upgrade at will, so a script may
// deadlock; the last line says how many processes were left parked, and
// those are then woken past the manager so no coroutine outlives the run.
func runLockScript(env *refEnv, m lockTable, scripts [][]lockOp) []string {
	var trace []string
	aborted := false
	waiting := make([]*refProc, len(scripts))
	for o, script := range scripts {
		o, script := o, script
		env.GoAt(time.Duration(o)*time.Millisecond/2, func(p *refProc) {
			for i, op := range script {
				switch op.kind {
				case opAcquire:
					waiting[o] = p
					m.Acquire(p, o, op.lock, op.mode)
					waiting[o] = nil
					if aborted {
						return
					}
				case opRelease:
					m.Release(o, op.lock)
				case opReleaseAll:
					m.ReleaseAll(o)
				case opSleep:
					p.Sleep(op.sleep)
				}
				line := fmt.Sprintf("%v owner %d step %d kind %d %s %v: %+v", p.Now(), o, i, op.kind, op.lock, op.mode, m.Stats())
				for _, n := range scriptLocks {
					line += fmt.Sprintf(" %s %d/%d", n, m.Holders(n), m.QueueLen(n))
				}
				trace = append(trace, line)
			}
			m.ReleaseAll(o)
		})
	}
	blocked := env.Run()
	trace = append(trace, fmt.Sprintf("%d blocked", blocked))
	if blocked > 0 {
		aborted = true
		for _, p := range waiting {
			if p != nil {
				env.Wake(p)
			}
		}
		if left := env.Run(); left != 0 {
			panic(fmt.Sprintf("%d processes still parked after the abort", left))
		}
	}
	return trace
}

// FuzzLockManager replays one seeded script on LockManager and on the
// list-walking refLockManager and compares them step by step: acquires in
// all four modes, same-owner re-acquires and upgrades, Release (also of a
// name never acquired), ReleaseAll, barging on and off, and — with a handful
// of owners on three locks — several owners parked on one lock and on
// different locks of one releaser.
func FuzzLockManager(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(12), false)
	f.Add(uint64(1992), uint8(7), uint8(30), true)
	f.Add(uint64(7), uint8(2), uint8(40), false) // two owners: mostly re-acquires and upgrades
	f.Add(uint64(33), uint8(5), uint8(25), true)
	f.Add(uint64(1882), uint8(0x13), uint8(0x1e), true) // a lock listed twice around another, waiters on both
	f.Fuzz(func(t *testing.T, seed uint64, owners, steps uint8, barging bool) {
		scripts := lockScripts(seed, 1+int(owners%8), 1+int(steps%48))
		env, m := newLockEnv()
		m.Barging = barging
		got := runLockScript(env, m, scripts)
		if d := heldCountsDiff(m); d != "" && got[len(got)-1] == "0 blocked" {
			t.Fatal(d)
		}
		refEnv := newRefEnv(sim.NewSerialEnv(&sim.Clock{}))
		ref := newRefLockManager(refEnv)
		ref.Barging = barging
		want := runLockScript(refEnv, ref, scripts)
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i] != want[i] {
				t.Fatalf("line %d diverged from the reference:\n got %s\nwant %s", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d lines, the reference has %d", len(got), len(want))
		}
	})
}

// BenchmarkLockCycle times DebitCredit's lock traffic — IX on the database,
// the relation and the index, X on one page, then the commit-point
// ReleaseAll — while that many other open transactions hold IX on the three
// shared locks: on LockManager by key (names and an owner key resolved per
// call), on LockManager by record (resolved locks and a borrowed record, as
// db.System calls it) and on refLockManager (keys and lists). The steady
// state allocates nothing on any.
func BenchmarkLockCycle(b *testing.B) {
	shared := []string{"db", "rel:accounts", "idx:accounts"}
	const page = "page:accounts/7"
	for _, holders := range []int{1, 64, 512} {
		for _, side := range []string{"by-key", "by-record", "reference"} {
			b.Run("holders="+strconv.Itoa(holders)+"/"+side, func(b *testing.B) {
				env := newRefEnv(sim.NewSerialEnv(&sim.Clock{}))
				var m lockTable
				pm := newKeyedLocks()
				pm.Barging = true
				if m = pm; side == "reference" {
					rm := newRefLockManager(env)
					rm.Barging = true
					m = rm
				}
				for o := 0; o < holders; o++ {
					for _, n := range shared {
						m.Acquire(nil, o, n, IX) // never blocks: nil proc is unused
					}
				}
				owner := interface{}("txn")
				cycle := func() {
					m.Acquire(nil, owner, shared[0], IX)
					m.Acquire(nil, owner, shared[1], IX)
					m.Acquire(nil, owner, page, X)
					m.Acquire(nil, owner, shared[2], IX)
					m.ReleaseAll(owner)
				}
				if side == "by-record" {
					db, rel, idx, pg := pm.lockFor(shared[0]), pm.lockFor(shared[1]), pm.lockFor(shared[2]), pm.lockFor(page)
					cycle = func() {
						owner := pm.newOwner()
						pm.acquire(owner, db, IX, nil)
						pm.acquire(owner, rel, IX, nil)
						pm.acquire(owner, pg, X, nil)
						pm.acquire(owner, idx, IX, nil)
						pm.releaseAll(owner)
					}
				}
				cycle() // first use grows the owner's list
				if a := testing.AllocsPerRun(100, cycle); a != 0 {
					b.Fatalf("%v allocs per cycle in steady state, want 0", a)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle()
				}
			})
		}
	}
}
