package db

import (
	"slices"
	"testing"
	"time"

	"epcm/internal/sim"
)

// refEnv runs simulated processes on a sim.Env, for the straight-line
// reference bodies (refRun) and the lock tests. Each process is a goroutine,
// and exactly one runs at a time: the drain hands control to a process over
// an unbuffered channel and waits on another until the process parks or
// finishes. A process's resume is a callback queued with Shard.At, so it
// takes the (at, seq) slot and counts as the one event a transaction
// record's resume does.
type refEnv struct {
	*sim.Env
	shard   *sim.Shard
	parked  chan struct{} // signalled when the running process parks or finishes
	blocked int           // processes parked with no resume queued
}

func newRefEnv(env *sim.Env) *refEnv {
	return &refEnv{Env: env, shard: env.Shard(0), parked: make(chan struct{})}
}

// refProc is a simulated process. Its methods must only be called from
// within the process's own body.
type refProc struct {
	env      *refEnv
	resume   chan struct{}
	dispatch func() // p.run, bound once so queueing a resume does not allocate
}

func (p *refProc) Now() time.Duration { return p.env.Now() }

// Go starts a process running body at the current virtual time, after the
// caller yields to the drain.
func (r *refEnv) Go(body func(p *refProc)) *refProc {
	return r.GoAt(r.Now(), body)
}

// GoAt starts a process running body at virtual time t, which must not be
// in the past.
func (r *refEnv) GoAt(t time.Duration, body func(p *refProc)) *refProc {
	p := &refProc{env: r, resume: make(chan struct{})}
	p.dispatch = p.run
	r.shard.At(t, p.dispatch)
	go func() {
		<-p.resume // wait for first dispatch
		body(p)
		r.parked <- struct{}{} // signal completion to the drain
	}()
	return p
}

// run resumes the process and waits for it to park or finish.
func (p *refProc) run() {
	p.resume <- struct{}{}
	<-p.env.parked
}

// park hands control back to the drain until the next resume.
func (p *refProc) park() {
	p.env.parked <- struct{}{}
	<-p.resume
}

// Sleep advances the process by d of virtual time.
func (p *refProc) Sleep(d time.Duration) {
	if d < 0 {
		panic("db: negative sleep")
	}
	p.env.shard.At(p.Now()+d, p.dispatch)
	p.park()
}

// Park suspends the process until some other process or callback wakes it.
func (p *refProc) Park() {
	p.env.blocked++
	p.park()
}

// Wake queues parked process q to resume at the current virtual time.
func (r *refEnv) Wake(q *refProc) {
	r.blocked--
	r.shard.At(r.Now(), q.dispatch)
}

// wake makes a process a lock waiter: the releaser grants, then wakes it.
func (p *refProc) wake() { p.env.Wake(p) }

// Run drains the queue and reports how many processes are left parked for
// good (a deadlock). Each stays blocked on its goroutine until woken.
func (r *refEnv) Run() int {
	r.Env.Run()
	return r.blocked
}

// refResource is a counted resource with FIFO queueing — the processors
// and the disk of the reference machine. A process holds one unit between
// Acquire and Release.
type refResource struct {
	env      *refEnv
	capacity int
	inUse    int
	waiters  []*refProc
}

// Acquire obtains one unit, parking the process in FIFO order while all
// units are busy.
func (r *refResource) Acquire(p *refProc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.Park() // Release hands the unit over before the wake
}

// Release returns one unit, handing it to the oldest waiter if any.
func (r *refResource) Release() {
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters[0] = nil
		r.waiters = r.waiters[1:]
		r.env.Wake(w)
		return
	}
	if r.inUse--; r.inUse < 0 {
		panic("db: resource released more than acquired")
	}
}

// The tests below hold the helper to the ordering rules refRun relies on.

func newTestRefEnv() (*refEnv, *sim.Clock) {
	var c sim.Clock
	return newRefEnv(sim.NewSerialEnv(&c)), &c
}

func TestRefEnvProcSleep(t *testing.T) {
	e, c := newTestRefEnv()
	var trace []string
	e.Go(func(p *refProc) {
		trace = append(trace, "a0")
		p.Sleep(10 * time.Millisecond)
		trace = append(trace, "a1")
	})
	e.Go(func(p *refProc) {
		trace = append(trace, "b0")
		p.Sleep(5 * time.Millisecond)
		trace = append(trace, "b1")
	})
	e.Run()
	if want := []string{"a0", "b0", "b1", "a1"}; !slices.Equal(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	if c.Now() != 10*time.Millisecond {
		t.Fatalf("clock = %v", c.Now())
	}
}

func TestRefEnvParkWake(t *testing.T) {
	e, _ := newTestRefEnv()
	var woke time.Duration
	var sleeper *refProc
	done := false
	e.Go(func(p *refProc) {
		sleeper = p
		p.Park()
		woke = p.Now()
		done = true
	})
	e.Go(func(p *refProc) {
		p.Sleep(7 * time.Millisecond)
		e.Wake(sleeper)
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	if !done || woke != 7*time.Millisecond {
		t.Fatalf("done=%v woke=%v", done, woke)
	}
}

func TestRefEnvDetectsPermanentBlock(t *testing.T) {
	e, _ := newTestRefEnv()
	e.Go(func(p *refProc) { p.Park() })
	if blocked := e.Run(); blocked != 1 {
		t.Fatalf("blocked = %d, want 1", blocked)
	}
}

func TestRefResourceFIFOAndCapacity(t *testing.T) {
	e, c := newTestRefEnv()
	r := &refResource{env: e, capacity: 2}
	var order []string
	worker := func(name string, hold time.Duration) func(*refProc) {
		return func(p *refProc) {
			r.Acquire(p)
			order = append(order, name+"+")
			p.Sleep(hold)
			order = append(order, name+"-")
			r.Release()
		}
	}
	for _, name := range []string{"w1", "w2", "w3", "w4"} {
		e.Go(worker(name, 10*time.Millisecond))
	}
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	// w1 and w2 run immediately; w3 and w4 wait for releases, in order.
	// w2's own sleep-end event was scheduled before w3's grant event, so at
	// t=10ms w2 finishes before w3 starts.
	if want := []string{"w1+", "w2+", "w1-", "w2-", "w3+", "w4+", "w3-", "w4-"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if c.Now() != 20*time.Millisecond {
		t.Fatalf("makespan = %v, want 20ms (2 waves of 10ms on 2 units)", c.Now())
	}
	if r.inUse != 0 || len(r.waiters) != 0 {
		t.Fatalf("resource not drained: inUse=%d queue=%d", r.inUse, len(r.waiters))
	}
}

func TestRefResourceOverReleasePanics(t *testing.T) {
	e, _ := newTestRefEnv()
	r := &refResource{env: e, capacity: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	r.Release()
}

func TestRefEnvManyProcsDeterministic(t *testing.T) {
	run := func() (time.Duration, int64, int64) {
		e, c := newTestRefEnv()
		r := &refResource{env: e, capacity: 3}
		rng := sim.NewRNG(99)
		var total int64
		for i := 0; i < 200; i++ {
			d := time.Duration(rng.Intn(1000)+1) * time.Microsecond
			e.GoAt(time.Duration(rng.Intn(5000))*time.Microsecond, func(p *refProc) {
				r.Acquire(p)
				p.Sleep(d)
				r.Release()
				total++
			})
		}
		e.Run()
		return c.Now(), total, e.EventsProcessed()
	}
	t1, n1, ev1 := run()
	t2, n2, ev2 := run()
	if n1 != 200 || n2 != 200 {
		t.Fatalf("completions %d, %d", n1, n2)
	}
	if t1 != t2 || ev1 != ev2 {
		t.Fatalf("non-deterministic run: makespan %v vs %v, events %d vs %d", t1, t2, ev1, ev2)
	}
}

func TestRefEnvGoAtInPastPanics(t *testing.T) {
	e, c := newTestRefEnv()
	c.Advance(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("GoAt in the past did not panic")
		}
	}()
	e.GoAt(time.Millisecond, func(p *refProc) {})
}

func TestRefProcSleepNegativePanics(t *testing.T) {
	e, _ := newTestRefEnv()
	panicked := false
	e.Go(func(p *refProc) {
		defer func() { panicked = recover() != nil }()
		p.Sleep(-1)
	})
	e.Run()
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}
