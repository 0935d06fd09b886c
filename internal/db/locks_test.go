package db

import (
	"fmt"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"epcm/internal/sim"
)

func newLockEnv() (*sim.Env, *LockManager) {
	var c sim.Clock
	env := sim.NewSerialEnv(&c)
	return env, NewLockManager()
}

// procWaiter is a simulated process queued for a lock.
type procWaiter sim.Proc

func (w *procWaiter) wake() { p := (*sim.Proc)(w); p.Env().Wake(p) }

// Acquire obtains `name` in `mode` on behalf of owner, blocking the calling
// process until the lock is granted. It is the keyed spelling the lock tests
// and benchmarks drive; an owner is one process.
func (m *LockManager) Acquire(p *sim.Proc, owner interface{}, name string, mode Mode) {
	hl := m.held[owner]
	if hl == nil {
		hl = m.newOwner()
		m.held[owner] = hl
	}
	if !m.acquire(hl, m.lockFor(name), mode, (*procWaiter)(p)) {
		p.Park() // the releaser grants the hold before waking us
	}
}

// Release drops every hold owner has on `name` and grants waiters.
func (m *LockManager) Release(owner interface{}, name string) {
	l := m.locks[name]
	if l == nil {
		return
	}
	if hl := m.held[owner]; hl != nil {
		m.drop(l, hl.holds)
		hl.holds = slices.DeleteFunc(hl.holds, func(h hold) bool { return h.l == nil })
		if len(hl.holds) == 0 {
			delete(m.held, owner)
			m.heldFree = append(m.heldFree, hl)
		}
	}
	m.grantWaiters(l)
}

// ReleaseAll drops every hold owner has anywhere (two-phase commit point).
func (m *LockManager) ReleaseAll(owner interface{}) {
	if hl := m.held[owner]; hl != nil {
		delete(m.held, owner)
		m.releaseAll(hl)
	}
}

// Compatible reports whether two modes can be held simultaneously.
func Compatible(a, b Mode) bool { return compatible[a][b] }

// Holders reports the number of current holders of a lock.
func (m *LockManager) Holders(name string) int {
	if l, ok := m.locks[name]; ok {
		return int(l.held[IS] + l.held[IX] + l.held[S] + l.held[X])
	}
	return 0
}

// QueueLen reports the number of waiters on a lock.
func (m *LockManager) QueueLen(name string) int {
	if l, ok := m.locks[name]; ok {
		return len(l.queue)
	}
	return 0
}

// The standard compatibility matrix must be symmetric and have the
// defining properties: IS compatible with everything but X; X compatible
// with nothing.
func TestCompatibilityMatrix(t *testing.T) {
	modes := []Mode{IS, IX, S, X}
	for _, a := range modes {
		for _, b := range modes {
			if Compatible(a, b) != Compatible(b, a) {
				t.Fatalf("matrix asymmetric at %v,%v", a, b)
			}
			if a == X || b == X {
				if Compatible(a, b) {
					t.Fatalf("X compatible with %v", b)
				}
			}
		}
	}
	if !Compatible(IS, S) || !Compatible(IS, IX) || !Compatible(IX, IX) || !Compatible(S, S) {
		t.Fatal("expected compatibilities missing")
	}
	if Compatible(IX, S) {
		t.Fatal("IX and S must conflict")
	}
}

func TestSharedHoldersOverlapAndWriterWaits(t *testing.T) {
	env, m := newLockEnv()
	var events []string
	reader := func(name string) func(*sim.Proc) {
		return func(p *sim.Proc) {
			m.Acquire(p, name, "r", S)
			events = append(events, name+"+")
			p.Sleep(10 * time.Millisecond)
			events = append(events, name+"-")
			m.ReleaseAll(name)
		}
	}
	env.Go("r1", reader("r1"))
	env.Go("r2", reader("r2"))
	env.Go("w", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		m.Acquire(p, "w", "r", X)
		events = append(events, "w+")
		m.ReleaseAll("w")
	})
	if blocked := env.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	// Both readers held concurrently; the writer ran only after both.
	want := []string{"r1+", "r2+", "r1-", "r2-", "w+"}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

// FIFO (no barging): a reader arriving behind a queued writer waits, so
// writers are not starved.
func TestNoBargingBlocksLateReaders(t *testing.T) {
	env, m := newLockEnv()
	var order []string
	env.Go("r1", func(p *sim.Proc) {
		m.Acquire(p, "r1", "l", S)
		p.Sleep(10 * time.Millisecond)
		m.ReleaseAll("r1")
	})
	env.Go("w", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		m.Acquire(p, "w", "l", X)
		order = append(order, "w")
		p.Sleep(time.Millisecond)
		m.ReleaseAll("w")
	})
	env.Go("r2", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond) // arrives while w queued
		m.Acquire(p, "r2", "l", S)
		order = append(order, "r2")
		m.ReleaseAll("r2")
	})
	if blocked := env.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	if order[0] != "w" || order[1] != "r2" {
		t.Fatalf("order = %v, want writer first", order)
	}
}

// With barging, the late reader joins the running reader immediately.
func TestBargingLetsReadersShare(t *testing.T) {
	env, m := newLockEnv()
	m.Barging = true
	var r2At time.Duration
	env.Go("r1", func(p *sim.Proc) {
		m.Acquire(p, "r1", "l", S)
		p.Sleep(10 * time.Millisecond)
		m.ReleaseAll("r1")
	})
	env.Go("w", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		m.Acquire(p, "w", "l", X)
		m.ReleaseAll("w")
	})
	env.Go("r2", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		m.Acquire(p, "r2", "l", S)
		r2At = p.Now()
		p.Sleep(5 * time.Millisecond)
		m.ReleaseAll("r2")
	})
	if blocked := env.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	if r2At != 2*time.Millisecond {
		t.Fatalf("barging reader waited until %v", r2At)
	}
}

func TestReleaseSingleLock(t *testing.T) {
	env, m := newLockEnv()
	env.Go("a", func(p *sim.Proc) {
		m.Acquire(p, "a", "l1", X)
		m.Acquire(p, "a", "l2", X)
		m.Release("a", "l1")
		if m.Holders("l1") != 0 {
			t.Error("l1 still held")
		}
		if m.Holders("l2") != 1 {
			t.Error("l2 dropped")
		}
		m.ReleaseAll("a")
	})
	env.Run()
	if m.Holders("l2") != 0 {
		t.Fatal("ReleaseAll missed l2")
	}
}

func TestIntentionLocksDoNotBlockEachOther(t *testing.T) {
	env, m := newLockEnv()
	concurrent := 0
	max := 0
	for i := 0; i < 10; i++ {
		name := i
		env.Go("dc", func(p *sim.Proc) {
			m.Acquire(p, name, "rel", IX)
			concurrent++
			if concurrent > max {
				max = concurrent
			}
			p.Sleep(time.Millisecond)
			concurrent--
			m.ReleaseAll(name)
		})
	}
	if blocked := env.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	if max != 10 {
		t.Fatalf("max concurrent IX holders = %d, want 10", max)
	}
	if m.Stats().Waits != 0 {
		t.Fatalf("IX holders waited %d times", m.Stats().Waits)
	}
}

// Property: after any sequence of acquire/release by sequential owners,
// every pair of simultaneously granted holds (different owners) is
// compatible. We exercise it through the simulation with random workloads.
func TestNoIncompatibleGrantsProperty(t *testing.T) {
	f := func(seed uint16, barging bool) bool {
		var c sim.Clock
		env := sim.NewSerialEnv(&c)
		m := NewLockManager()
		m.Barging = barging
		rng := sim.NewRNG(uint64(seed) + 1)
		violation := false
		check := func() {
			type ownedHold struct {
				owner interface{}
				mode  Mode
			}
			granted := make(map[*lock][]ownedHold)
			for owner, hl := range m.held {
				for _, h := range hl.holds {
					granted[h.l] = append(granted[h.l], ownedHold{owner, h.mode})
				}
			}
			for _, holds := range granted {
				for i, a := range holds {
					for _, b := range holds[i+1:] {
						if a.owner != b.owner && !Compatible(a.mode, b.mode) {
							violation = true
						}
					}
				}
			}
			if d := heldCountsDiff(m); d != "" {
				t.Log(d)
				violation = true
			}
		}
		for i := 0; i < 30; i++ {
			owner := i
			mode := Mode(rng.Intn(4))
			lockName := []string{"l1", "l2"}[rng.Intn(2)]
			hold := time.Duration(rng.Intn(5)+1) * time.Millisecond
			env.GoAt(time.Duration(rng.Intn(50))*time.Millisecond, "p", func(p *sim.Proc) {
				m.Acquire(p, owner, lockName, mode)
				check()
				p.Sleep(hold)
				check()
				m.ReleaseAll(owner)
			})
		}
		if blocked := env.Run(); blocked != 0 {
			return false
		}
		return !violation
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// heldCountsDiff checks every lock's per-mode counts against the keyed
// owners' records — held[m] must be the number of listed (lock, m) pairs —
// and describes the first lock that disagrees. A record is indexed from its
// owner's first Acquire, so it may list nothing in exactly one state: its
// owner's request is queued.
func heldCountsDiff(m *LockManager) string {
	listed := make(map[*lock][4]int32)
	for owner, hl := range m.held {
		for _, h := range hl.holds {
			c := listed[h.l]
			c[h.mode]++
			listed[h.l] = c
		}
		if len(hl.holds) == 0 && !queued(m, hl) {
			return fmt.Sprintf("owner %v is indexed with no holds and no queued request", owner)
		}
	}
	for _, l := range m.locks {
		if l.held != listed[l] {
			return fmt.Sprintf("%s counts %v holds per mode, the owners list %v", l.name, l.held, listed[l])
		}
		delete(listed, l)
	}
	if len(listed) != 0 {
		return fmt.Sprintf("%d listed locks are not in the manager", len(listed))
	}
	return ""
}

// queued reports whether some lock's queue holds a request of owner.
func queued(m *LockManager, owner *holdList) bool {
	for _, l := range m.locks {
		for _, w := range l.queue {
			if w.owner == owner {
				return true
			}
		}
	}
	return false
}

// Releasing a name nobody ever acquired, or for a key the manager has never
// seen, is a no-op: it must not leave an empty lock or an owner's record
// behind in the manager for good.
func TestReleaseUnknownNameCreatesNothing(t *testing.T) {
	_, m := newLockEnv()
	m.Acquire(nil, "a", "held", S) // never blocks: nil proc is unused
	m.Release("a", "never-acquired")
	m.Release("b", "never-acquired")
	m.Release("b", "held")
	m.ReleaseAll("b")
	if len(m.locks) != 1 {
		t.Fatalf("%d locks in the manager after releasing an unknown name, want 1", len(m.locks))
	}
	if len(m.held) != 1 || m.records != 1 || len(m.heldFree) != 0 {
		t.Fatalf("%d owners indexed, %d records made, %d free after releasing for an unknown key; want 1, 1, 0",
			len(m.held), m.records, len(m.heldFree))
	}
	if m.Holders("held") != 1 || m.Stats().Released != 0 {
		t.Fatalf("the unrelated hold moved: %d holders, %d released", m.Holders("held"), m.Stats().Released)
	}
}

// ReleaseAll releases in acquisition order, so when one owner holds two
// locks that each have a parked waiter, the order the waiters wake in is a
// function of the run — before the per-owner hold list it followed Go's map
// iteration order and differed from run to run.
func TestReleaseAllWakeOrderDeterministic(t *testing.T) {
	run := func() []string {
		env, m := newLockEnv()
		var woke []string
		env.Go("holder", func(p *sim.Proc) {
			m.Acquire(p, "holder", "b", X) // acquired first, released first
			m.Acquire(p, "holder", "a", X)
			p.Sleep(10 * time.Millisecond)
			m.ReleaseAll("holder")
		})
		for _, name := range []string{"a", "b"} {
			name := name
			env.Go("w"+name, func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				m.Acquire(p, "w"+name, name, S)
				woke = append(woke, name)
				m.ReleaseAll("w" + name)
			})
		}
		if blocked := env.Run(); blocked != 0 {
			t.Fatalf("blocked = %d", blocked)
		}
		if m.Holders("a")+m.Holders("b") != 0 || len(m.held) != 0 {
			t.Fatalf("holds left behind: a=%d b=%d, %d owners indexed",
				m.Holders("a"), m.Holders("b"), len(m.held))
		}
		return woke
	}
	for i := 0; i < 200; i++ {
		if woke := run(); len(woke) != 2 || woke[0] != "b" || woke[1] != "a" {
			t.Fatalf("run %d: wake order %v, want [b a] (acquisition order)", i, woke)
		}
	}
}

// Property: the per-owner hold index agrees with the locks themselves after
// every operation, so ReleaseAll(o) leaves no lock anywhere listing o — also
// after an interleaved Release(o, name) and a re-acquire of the same name in
// a stronger mode — and LockStats.Released counts what a sweep over every
// lock would have counted. One process plays every owner, so a request that
// another owner's hold would block is not issued.
func TestReleaseAllLeavesNoHoldProperty(t *testing.T) {
	names := []string{"db", "rel", "page:1", "page:2", "idx"}
	const owners = 4
	f := func(seed uint16) bool {
		env, m := newLockEnv()
		rng := sim.NewRNG(uint64(seed) + 1)
		model := make(map[string]*[owners][]Mode) // holds per name per owner
		for _, n := range names {
			model[n] = new([owners][]Mode)
		}
		var released int64
		ok := true
		fail := func(format string, args ...interface{}) {
			t.Logf(format, args...)
			ok = false
		}
		check := func(step int) {
			for o := 0; o < owners; o++ {
				listed := make(map[string]int)
				if hl := m.held[o]; hl != nil {
					for _, h := range hl.holds {
						listed[h.l.name]++
					}
				}
				for _, n := range names {
					if listed[n] != len(model[n][o]) {
						fail("step %d: owner %d lists %d holds on %s, model %d",
							step, o, listed[n], n, len(model[n][o]))
					}
				}
			}
			if d := heldCountsDiff(m); d != "" {
				fail("step %d: %s", step, d)
			}
			if m.Stats().Released != released {
				fail("step %d: Released = %d, model %d", step, m.Stats().Released, released)
			}
		}
		grantable := func(o int, n string, mode Mode) bool {
			for q, held := range model[n] {
				for _, h := range held {
					if q != o && !Compatible(h, mode) {
						return false
					}
				}
			}
			return true
		}
		env.Go("script", func(p *sim.Proc) {
			for step := 0; step < 200 && ok; step++ {
				o, n := rng.Intn(owners), names[rng.Intn(len(names))]
				switch mode := Mode(rng.Intn(4)); {
				case rng.Bool(0.5) && grantable(o, n, mode):
					m.Acquire(p, o, n, mode)
					model[n][o] = append(model[n][o], mode)
				case rng.Bool(0.5):
					m.Release(o, n)
					released += int64(len(model[n][o]))
					model[n][o] = nil
				default:
					m.ReleaseAll(o)
					for _, held := range model {
						released += int64(len(held[o]))
						held[o] = nil
					}
				}
				check(step)
			}
		})
		if blocked := env.Run(); blocked != 0 {
			fail("script blocked")
		}
		if m.Stats().Waits != 0 {
			fail("script waited %d times", m.Stats().Waits)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGrantWaitersClearsDeadSlots: granting a waiter takes it out of the
// lock's queue — resliced past the head in FIFO order, compacted under
// barging — and the slot it leaves must be cleared, or the queue's array
// keeps the woken process reachable until the slice next reallocates. The
// test watches the whole array of a queue that never has to grow.
func TestGrantWaitersClearsDeadSlots(t *testing.T) {
	for _, barging := range []bool{false, true} {
		env, m := newLockEnv()
		m.Barging = barging
		const owners = 16
		l := m.lockFor("l")
		l.queue = make([]lockWait, 0, owners)
		array := l.queue[:owners]
		for o := 0; o < owners; o++ {
			o := o
			env.Go("owner", func(p *sim.Proc) {
				mode := X
				if o%3 == 1 {
					mode = S // readers between the writers: barging grants them out of order
				}
				m.Acquire(p, o, "l", mode)
				p.Sleep(time.Millisecond)
				m.ReleaseAll(o)
			})
		}
		if blocked := env.Run(); blocked != 0 || len(l.queue) != 0 {
			t.Fatalf("barging %v: %d blocked, %d still queued", barging, blocked, len(l.queue))
		}
		if m.Stats().Waits != owners-1 {
			t.Fatalf("barging %v: %d waits, want %d: the run was not contended", barging, m.Stats().Waits, owners-1)
		}
		for i, w := range array {
			if w != (lockWait{}) {
				t.Fatalf("barging %v: slot %d of the queue's array still holds a granted request", barging, i)
			}
		}
	}
}

// BenchmarkLockReleaseAll times one DebitCredit-shaped lock cycle — four
// acquisitions and the commit-point ReleaseAll — with 8, 1 024 and 16 384
// distinct lock names alive in the manager. ns/op must not grow with the
// number of live locks, and the steady state allocates nothing.
func BenchmarkLockReleaseAll(b *testing.B) {
	for _, live := range []int{8, 1024, 16384} {
		b.Run(strconv.Itoa(live), func(b *testing.B) {
			_, m := newLockEnv()
			m.Barging = true
			pages := make([]string, live)
			for i := range pages {
				pages[i] = "page:accounts/" + strconv.Itoa(i)
				m.Acquire(nil, "setup", pages[i], X) // never blocks: nil proc is unused
			}
			m.ReleaseAll("setup")
			owner := interface{}("txn")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Acquire(nil, owner, "db", IX)
				m.Acquire(nil, owner, "rel:accounts", IX)
				m.Acquire(nil, owner, pages[i%live], X)
				m.Acquire(nil, owner, "idx:accounts", IX)
				m.ReleaseAll(owner)
			}
		})
	}
}
