package sim

import (
	"fmt"
	"sync"
	"time"
)

// This file is the sharded virtual-time engine: the conservative parallel
// discrete-event simulation (windowed / YAWNS-style) drain that lets
// per-shard event queues advance concurrently.
//
// Let GVT be the minimum next-event time across all shards and L the
// lookahead — the hard lower bound on how far in the future a message
// between managers may land (CostModel.MinDeliveryLatency: no manager can
// observe another manager's action in less than a trap plus an upcall). A
// window drains every shard with events in [GVT, GVT+L) on a goroutine of
// its own; shards share no events, so the drains need no coordination, and
// the window boundaries are pure functions of virtual time.
//
// With one shard the window loop pops the same queue in the same (at, seq)
// order the serial engine does, advancing the same clock.

// ---------------------------------------------------------------------------
// Shard

// Shard is one partition of a sharded environment: an event queue and a
// local clock. During a lookahead window each shard is drained by exactly
// one goroutine, so none of its fields need locks.
type Shard struct {
	clock *Clock

	events eventQueue
	seq    int64

	processed int64 // events dispatched, for model-throughput metrics
}

// Now returns the shard's current local virtual time.
func (s *Shard) Now() time.Duration { return s.clock.Now() }

// HeapHighWater reports the most events the shard's queue has held outside
// its FIFO lane: how much of the run was scheduled out of order.
func (s *Shard) HeapHighWater() int { return s.events.heapHigh }

// push assigns the next local sequence number and queues the event.
func (s *Shard) push(ev event) {
	s.seq++
	ev.seq = s.seq
	s.events.push(ev)
}

// At schedules fn to run on this shard at absolute local virtual time t
// (which must not be in the past). fn runs in the shard's drain goroutine
// and must not block.
func (s *Shard) At(t time.Duration, fn func()) {
	if t < s.clock.Now() {
		panic(fmt.Sprintf("sim: event scheduled in the past (%v < %v)", t, s.clock.Now()))
	}
	s.push(event{at: t, fn: fn})
}

// After schedules fn to run d from the shard's current local time.
func (s *Shard) After(d time.Duration, fn func()) { s.At(s.clock.Now()+d, fn) }

// drain is both engines' loop: pop in (at, seq) order through the deadline,
// advancing the clock to each event and running its callback. A window
// [gvt, bound) is a drain through bound-1: events scheduled during it that
// land below bound run within it.
func (s *Shard) drain(deadline time.Duration) {
	for {
		if at, ok := s.events.nextAt(); !ok || at > deadline {
			break
		}
		ev := s.events.pop()
		s.clock.AdvanceTo(ev.at)
		s.processed++
		ev.fn()
	}
}

// ---------------------------------------------------------------------------
// Windowed run loop

// nextEventTime reports the minimum next-event time across all shards — the
// GVT of the conservative window — and whether any event is pending.
func (e *Env) nextEventTime() (time.Duration, bool) {
	var gvt time.Duration
	any := false
	for _, s := range e.shards {
		at, ok := s.events.nextAt()
		if !ok {
			continue
		}
		if !any || at < gvt {
			gvt = at
		}
		any = true
	}
	return gvt, any
}

// runWindows is the sharded engine's drive loop: compute the window
// [GVT, min(GVT+lookahead, deadline+1)) and drain every shard with runnable
// events concurrently.
func (e *Env) runWindows(deadline time.Duration) {
	for {
		gvt, any := e.nextEventTime()
		if !any || gvt > deadline {
			break
		}
		bound := gvt + e.lookahead
		if bound <= gvt {
			bound = gvt + 1 // guard a zero lookahead: always make progress
		}
		if bound > deadline+1 {
			bound = deadline + 1
		}
		e.active = e.active[:0]
		for _, s := range e.shards {
			if at, ok := s.events.nextAt(); ok && at < bound {
				e.active = append(e.active, s)
			}
		}
		if len(e.active) == 1 {
			e.active[0].drain(bound - 1)
			continue
		}
		var wg sync.WaitGroup
		for _, s := range e.active {
			wg.Add(1)
			go func(s *Shard) {
				defer wg.Done()
				s.drain(bound - 1)
			}(s)
		}
		wg.Wait()
	}
}
