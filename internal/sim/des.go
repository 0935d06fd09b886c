package sim

import (
	"time"
)

// Env is a discrete-event simulation environment: a virtual-time event
// queue that runs timer callbacks (At, After) and simulated processes (Go,
// GoAt). The database experiment (internal/db) runs each transaction as a
// record its callbacks resume; simulated processes serve the time sweep
// (internal/experiments) and this package's tests.
//
// Simulated processes are coroutines (coro.go): within one shard exactly one
// runs at a time and all ordering is decided by the virtual-time event
// queue, so runs are deterministic. A process advances virtual time with
// Proc.Sleep, contends for Resources, and blocks on wait queues via
// Proc.Park / Env.Wake.
//
// The environment runs on one of two virtual-time engines (shard.go):
//
//   - the serial engine (the default) drains a single event queue in strict
//     (at, seq) order — the golden reference every experiment output is
//     pinned against;
//   - the sharded engine partitions events across per-shard queues, each
//     with its own local clock, advanced concurrently in conservative
//     lookahead windows with a deterministic merge barrier for cross-shard
//     messages. With a single shard its event order is identical to the
//     serial engine's; the time sweep runs it at one to eight shards.
//
// The context-free Env methods (At, After, Go, Wake, ...) operate on shard
// 0, so serial-era code runs unchanged on either engine; shard-aware code
// pins work to shards through Env.Shard handles.
type Env struct {
	clock     *Clock
	shards    []*Shard
	lookahead time.Duration
	windowed  bool // sharded engine: drain in conservative lookahead windows
	windows   int64
	// active is the per-window scratch list of shards with runnable events,
	// reused so the window loop does not allocate.
	active []*Shard
}

// NewSerialEnv returns an environment driving the given clock on the serial
// engine.
func NewSerialEnv(clock *Clock) *Env { return newEnv(clock, 1, 0, false) }

// NewShardedEnv returns an environment on the sharded engine with the given
// shard count. lookahead is the conservative bound on cross-shard message
// latency; <= 0 selects the cost model's minimum delivery latency
// (CostModel.MinDeliveryLatency on the DECstation 5000 calibration), the
// hard lower bound any cross-manager message pays in this simulation.
// Shard 0 shares the environment's global clock; the others get fresh local
// clocks, so a sharded environment is normally built on a clock at zero.
func NewShardedEnv(clock *Clock, shards int, lookahead time.Duration) *Env {
	if shards <= 0 {
		panic("sim: sharded env needs at least one shard")
	}
	if lookahead <= 0 {
		lookahead = DECstation5000().MinDeliveryLatency()
	}
	return newEnv(clock, shards, lookahead, true)
}

func newEnv(clock *Clock, shards int, lookahead time.Duration, windowed bool) *Env {
	e := &Env{clock: clock, lookahead: lookahead, windowed: windowed}
	e.shards = make([]*Shard, shards)
	for i := range e.shards {
		c := clock
		if i > 0 {
			c = &Clock{}
		}
		e.shards[i] = &Shard{env: e, id: i, clock: c}
	}
	return e
}

// Clock returns the environment's global virtual clock (shard 0's clock).
func (e *Env) Clock() *Clock { return e.clock }

// Now returns the current virtual time of the global clock.
func (e *Env) Now() time.Duration { return e.clock.Now() }

// EngineName reports which virtual-time engine drives the environment:
// "serial" or "sharded".
func (e *Env) EngineName() string {
	if e.windowed {
		return "sharded"
	}
	return "serial"
}

// Lookahead reports the conservative cross-shard lookahead bound (zero on
// the serial engine).
func (e *Env) Lookahead() time.Duration { return e.lookahead }

// NumShards reports the number of time shards.
func (e *Env) NumShards() int { return len(e.shards) }

// Shard returns the i'th time shard.
func (e *Env) Shard(i int) *Shard { return e.shards[i] }

// EventsProcessed reports the total number of events dispatched across all
// shards. Read it after Run returns; it is not synchronized with a run in
// progress.
func (e *Env) EventsProcessed() int64 {
	var n int64
	for _, s := range e.shards {
		n += s.processed
	}
	return n
}

// Windows reports how many conservative lookahead windows the sharded
// engine has executed (zero on the serial engine).
func (e *Env) Windows() int64 { return e.windows }

type event struct {
	at   time.Duration
	seq  int64
	proc *Proc  // proc to resume, or nil for a timer callback
	fn   func() // timer callback, used when proc is nil
}

// before reports whether a pops ahead of b. (at, seq) keys are unique — seq
// increases on every push — so the order is total and runs are deterministic.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a shard's pending events, popped in (at, seq) order from two
// lanes. A push not earlier than the FIFO lane's newest event is appended to
// the lane in O(1) — its seq is the larger by construction, so the lane stays
// sorted: every arrival of a stream scheduled up front (the database run
// enqueues its 4 000 transactions before it starts), every inbox merged at a
// window barrier, any push into an empty lane. The rest goes to a binary heap
// and pop takes the smaller of the two heads, which is the order one heap
// would give; when nothing arrives in order the queue is that heap.
type eventQueue struct {
	lane     []event // a ring: len is zero or a power of two
	head, n  int     // index of the lane's oldest event; events in the lane
	heap     eventHeap
	heapHigh int // the most events the heap has held
}

// eventHeapInitialCap pre-sizes each lane on its first push: even the
// six-processor database run keeps well under this many events in flight
// besides its arrivals, so steady-state simulations never grow the queue.
const eventHeapInitialCap = 128

func (q *eventQueue) push(ev event) {
	mask := len(q.lane) - 1
	if q.n > 0 && ev.at < q.lane[(q.head+q.n-1)&mask].at {
		if q.heap == nil {
			q.heap = make(eventHeap, 0, eventHeapInitialCap)
		}
		q.heap.push(ev)
		q.heapHigh = max(q.heapHigh, len(q.heap))
		return
	}
	if q.n == len(q.lane) { // full, or not allocated: unwrap into twice the room
		lane := make([]event, max(eventHeapInitialCap, 2*len(q.lane)))
		k := copy(lane, q.lane[q.head:])
		copy(lane[k:], q.lane[:q.head])
		q.lane, q.head, mask = lane, 0, len(lane)-1
	}
	q.lane[(q.head+q.n)&mask] = ev
	q.n++
}

// laneFirst reports whether the next event to pop is the lane's head.
func (q *eventQueue) laneFirst() bool {
	return len(q.heap) == 0 || q.n > 0 && q.lane[q.head].before(&q.heap[0])
}

// nextAt reports the timestamp of the next event to pop, if any is queued.
func (q *eventQueue) nextAt() (time.Duration, bool) {
	if !q.laneFirst() {
		return q.heap[0].at, true
	}
	if q.n == 0 {
		return 0, false
	}
	return q.lane[q.head].at, true
}

// pop removes the earliest event. The queue must not be empty.
func (q *eventQueue) pop() event {
	if !q.laneFirst() {
		return q.heap.pop()
	}
	ev := q.lane[q.head]
	q.lane[q.head] = event{} // drop the callback/proc references for the GC
	q.head = (q.head + 1) & (len(q.lane) - 1)
	if q.n--; q.n == 0 && len(q.lane) > eventHeapInitialCap {
		q.lane, q.head = nil, 0 // a drained burst gives its array back
	}
	return ev
}

// eventHeap is a typed binary min-heap of value events. A typed heap avoids
// the interface{} boxing of container/heap, which allocated one event per
// Push/Pop on the simulator's hottest loop.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	// Sift up.
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the callback/proc references for the GC
	s = s[:n]
	*h = s
	// Sift down.
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l].before(&s[min]) {
			min = l
		}
		if r < n && s[r].before(&s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// At schedules fn to run at absolute virtual time t (which must not be in
// the past). fn runs in the scheduler's goroutine and must not block.
// On a sharded environment the event lands on shard 0.
func (e *Env) At(t time.Duration, fn func()) { e.shards[0].At(t, fn) }

// After schedules fn to run d from now (shard 0 on a sharded environment).
func (e *Env) After(d time.Duration, fn func()) { e.shards[0].After(d, fn) }

// Proc is a simulated process. Its methods must only be called from within
// the process's own body function.
type Proc struct {
	shard *Shard
	name  string
	body  func(p *Proc)
	w     *worker // from first dispatch until the body returns
}

// Name returns the name the process was started with.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.shard.env }

// Shard returns the time shard the process runs on.
func (p *Proc) Shard() *Shard { return p.shard }

// Now returns the current virtual time of the process's shard.
func (p *Proc) Now() time.Duration { return p.shard.clock.Now() }

// Go starts a new simulated process running body on shard 0. The process
// begins at the current virtual time, after the caller yields to the
// scheduler.
func (e *Env) Go(name string, body func(p *Proc)) *Proc {
	return e.shards[0].Go(name, body)
}

// GoAt is like Go but the process starts at absolute virtual time t.
func (e *Env) GoAt(t time.Duration, name string, body func(p *Proc)) *Proc {
	return e.shards[0].GoAt(t, name, body)
}

// Sleep advances the process by d of virtual time, letting other processes
// run in the interim. Sleeping models computation or I/O latency.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.shard.push(event{at: p.shard.clock.Now() + d, proc: p})
	p.park()
}

// Park suspends the process indefinitely; some other process or timer on
// the same shard must call Env.Wake(p) to resume it. Used to build wait
// queues (lock managers, condition variables).
func (p *Proc) Park() {
	p.shard.blocked++
	p.park()
}

// Wake schedules parked process q to resume at the current virtual time of
// q's own shard. It must pair with a Proc.Park, and the waker must run on
// q's shard — cross-shard coordination goes through Shard.Send, never
// through shared park/wake queues.
func (e *Env) Wake(q *Proc) { q.shard.Wake(q) }

// Run drives the simulation until no events remain. It reports the number
// of processes left permanently blocked (normally zero; nonzero indicates a
// deadlock in the simulated system, which tests assert against). Such a
// process stays parked on its coroutine for the life of the program; every
// other coroutine is gone when Run returns. A panic in a process body
// panics out of Run on the caller's goroutine, except from a window that
// drains several shards, whose drains run on goroutines of their own.
func (e *Env) Run() int { return e.RunUntil(1<<62 - 1) }

// RunUntil drives the simulation until no events remain or the next event
// is after deadline. It reports the number of processes left blocked.
func (e *Env) RunUntil(deadline time.Duration) int {
	defer e.stopWorkers()
	if e.windowed {
		return e.runWindows(deadline)
	}
	s := e.shards[0]
	s.drain(deadline)
	return s.blocked
}

// Resource is a counted resource with FIFO queueing — for example the six
// processors of the simulated SGI 4D/380. A process holds one unit between
// Acquire and Release. A Resource belongs to one shard's processes; it is
// not a cross-shard synchronization primitive.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  []*Proc
	waited   Series // time each Acquire spent queued
}

// NewResource returns a resource with the given capacity (number of units).
func NewResource(env *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: env, capacity: capacity}
}

// Acquire obtains one unit, blocking the process in FIFO order if all units
// are busy.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		r.waited.Add(0)
		return
	}
	start := p.Now()
	r.waiters = append(r.waiters, p)
	p.Park()
	r.waited.Add(p.Now() - start)
	// Ownership was transferred by Release before the wake, so inUse is
	// already accounted for.
}

// Release returns one unit, granting it to the oldest waiter if any.
func (r *Resource) Release() {
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters[0] = nil // or the array keeps the woken process reachable
		r.waiters = r.waiters[1:]
		// Hand the unit directly to w: inUse stays the same.
		r.env.Wake(w)
		return
	}
	r.inUse--
	if r.inUse < 0 {
		panic("sim: resource released more than acquired")
	}
}

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of processes waiting.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// WaitStats reports the distribution of times processes spent queued.
func (r *Resource) WaitStats() *Series { return &r.waited }

// Use runs fn while holding one unit of the resource.
func (r *Resource) Use(p *Proc, fn func()) {
	r.Acquire(p)
	defer r.Release()
	fn()
}
