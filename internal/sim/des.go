package sim

import (
	"time"
)

// Env is a discrete-event simulation environment: a virtual-time event
// queue of timer callbacks (At, After), run in (at, seq) order, each
// advancing the clock to its timestamp. The database experiment
// (internal/db) runs each transaction as a record its callbacks resume.
//
// The environment runs on one of two virtual-time engines (shard.go):
//
//   - the serial engine (the default) drains a single event queue in strict
//     (at, seq) order — the golden reference every experiment output is
//     pinned against;
//   - the sharded engine partitions events across per-shard queues, each
//     with its own local clock, drained concurrently in conservative
//     lookahead windows. With a single shard its event order is identical
//     to the serial engine's. No experiment runs it; the repo benchmark
//     times its drain.
//
// The context-free Env methods (At, After) operate on shard 0, so the same
// code runs on either engine; Env.Shard pins work to a shard.
type Env struct {
	clock     *Clock
	shards    []*Shard
	lookahead time.Duration
	windowed  bool // sharded engine: drain in conservative lookahead windows
	// active is the per-window scratch list of shards with runnable events,
	// reused so the window loop does not allocate.
	active []*Shard
}

// NewSerialEnv returns an environment driving the given clock on the serial
// engine.
func NewSerialEnv(clock *Clock) *Env { return newEnv(clock, 1, 0, false) }

// NewShardedEnv returns an environment on the sharded engine with the given
// shard count. lookahead is the width of a drain window; <= 0 selects the
// cost model's minimum delivery latency (CostModel.MinDeliveryLatency on
// the DECstation 5000 calibration), the hard lower bound any cross-manager
// message pays in this simulation. Shard 0 shares the environment's global
// clock; the others get fresh local clocks, so a sharded environment is
// normally built on a clock at zero.
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
		e.shards[i] = &Shard{clock: c}
	}
	return e
}

// Now returns the current virtual time of the global clock.
func (e *Env) Now() time.Duration { return e.clock.Now() }

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

type event struct {
	at  time.Duration
	seq int64
	fn  func()
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
// enqueues its 4 000 transactions before it starts), any push into an empty
// lane. The rest goes to a binary heap and pop takes the smaller of the two
// heads, which is the order one heap would give; when nothing arrives in
// order the queue is that heap.
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
	q.lane[q.head] = event{} // drop the callback reference for the GC
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
	s[n] = event{} // drop the callback reference for the GC
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

// Run drives the simulation until no events remain. A panic in a callback
// panics out of Run on the caller's goroutine, except from a window that
// drains several shards, whose drains run on goroutines of their own.
func (e *Env) Run() { e.RunUntil(1<<62 - 1) }

// RunUntil drives the simulation until no events remain or the next event
// is after deadline.
func (e *Env) RunUntil(deadline time.Duration) {
	if e.windowed {
		e.runWindows(deadline)
		return
	}
	e.shards[0].drain(deadline)
}
