package sim

import "time"

// refEnv is the process engine as it was before PR 15, kept as the
// reference FuzzProcSchedule and the layer benchmarks compare coro.go
// against: every process is a goroutine started at GoAt, and a dispatch is
// two unbuffered-channel hand-offs between the drain goroutine and the
// process (park / dispatch / GoAt below are the old bodies). Everything the
// rebuild left alone — the event heap, sequence numbers, the window loop,
// Send and the merge barrier — is the production Env it embeds: a
// reference process's resume is queued there as a timer callback, which
// takes the same (at, seq) slot and counts as the same one event the old
// proc event did.
type refEnv struct {
	*Env
	parked []chan struct{} // per shard: signalled when the running proc parks or finishes
}

func newRefEnv(e *Env) *refEnv {
	r := &refEnv{Env: e, parked: make([]chan struct{}, e.NumShards())}
	for i := range r.parked {
		r.parked[i] = make(chan struct{})
	}
	return r
}

type refProc struct {
	shard    *Shard
	parked   chan struct{}
	resume   chan struct{}
	name     string
	dispatch func() // p.run, bound once so queueing a resume does not allocate
}

func (p *refProc) Name() string       { return p.name }
func (p *refProc) Now() time.Duration { return p.shard.clock.Now() }

func (r *refEnv) GoAt(s *Shard, t time.Duration, name string, body func(p *refProc)) *refProc {
	if t < s.clock.Now() {
		panic("sim: process scheduled to start in the past")
	}
	p := &refProc{shard: s, parked: r.parked[s.id], resume: make(chan struct{}), name: name}
	p.dispatch = p.run
	go func() {
		<-p.resume // wait for first dispatch
		body(p)
		p.parked <- struct{}{} // signal completion to the scheduler
	}()
	s.push(event{at: t, fn: p.dispatch})
	return p
}

// run resumes the process and waits for it to park or finish.
func (p *refProc) run() {
	p.resume <- struct{}{}
	<-p.parked
}

// park suspends the calling process until the scheduler resumes it.
func (p *refProc) park() {
	p.parked <- struct{}{}
	<-p.resume
}

func (p *refProc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.shard.push(event{at: p.shard.clock.Now() + d, fn: p.dispatch})
	p.park()
}

func (p *refProc) Park() {
	p.shard.blocked++
	p.park()
}

func (r *refEnv) Wake(q *refProc) {
	t := q.shard
	t.blocked--
	t.push(event{at: t.clock.Now(), fn: q.dispatch})
}

// refResource is Resource over reference processes, without the statistics.
type refResource struct {
	env      *refEnv
	capacity int
	inUse    int
	waiters  []*refProc
}

func (r *refResource) Acquire(p *refProc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.Park()
}

func (r *refResource) Release() {
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.env.Wake(w)
		return
	}
	r.inUse--
}

// refClock is the clock as one plain word — what Clock was before it was
// striped, minus the atomics. FuzzClock replays one script on both.
type refClock struct{ now int64 }

func (c *refClock) Now() time.Duration { return time.Duration(c.now) }

func (c *refClock) Advance(d time.Duration) {
	if d < 0 {
		panic("sim: clock advanced by negative duration")
	}
	c.now += int64(d)
}

// AdvanceOn ignores the key: placement is not part of the clock's meaning.
func (c *refClock) AdvanceOn(_ uint64, d time.Duration) { c.Advance(d) }

func (c *refClock) AdvanceTo(t time.Duration) {
	if int64(t) < c.now {
		panic("sim: clock moved backwards")
	}
	c.now = int64(t)
}

func (c *refClock) Reset() { c.now = 0 }
