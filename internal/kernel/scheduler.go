package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"epcm/internal/plane"
)

// This file is the fault-delivery plane. Faults, deletion notices and
// control requests reach a manager through a Scheduler. Two schedulers
// exist:
//
//   - the serial scheduler (the default) runs each message as a direct call
//     on the caller's goroutine — the synchronous call graph, with the same
//     charge sequence, stats and golden output as every other mode;
//   - the concurrent scheduler gives every manager a lane (a message ring
//     and a combining token) and turns a delivery into either an inline run
//     or an enqueue + wait for the reply, which lets N applications fault
//     against N managers in parallel.
//
// Injection (DeliveryInterceptor), cost accounting (chargeDelivery and
// chargeReturn) and crash recovery (Revoke) all live in processFaultRun
// (vector.go) and processDelete below, so both schedulers get identical
// semantics per message; the scheduler only decides where and when messages
// run, and how many queued faults one delivery carries.

// Scheduler routes delivery-plane messages to managers. Both implementations
// live in this file (the unexported methods seal the interface): each runs
// every fault through processFaultRun and every deletion notice through
// processDelete, so costing, injection and revocation behave identically in
// every mode. The kernel's own entry points take the manager's record, which
// carries its lane.
type Scheduler interface {
	// Name identifies the scheduler ("serial" or "concurrent").
	Name() string
	// Concurrent reports whether managers run on their own goroutines.
	// When true the kernel swaps its mapping table for the lock-free CAS
	// variant at install time and gives each segment its own TLB.
	Concurrent() bool
	// Exec runs fn in m's delivery context — on m's worker goroutine under
	// the concurrent scheduler — and blocks until it returns. Recovery uses
	// it to run segment adoption where the adopting manager's other work
	// runs, so the manager needs no internal locking.
	Exec(m Manager, fn func())
	// Stop shuts the scheduler down, releasing any worker goroutines.
	// Further deliveries report ErrNoManager-free nil results; Stop is for
	// end-of-run teardown, not a pause.
	Stop()
	// deliverFault routes a fault to c's manager and blocks until it has
	// been handled (or dropped / crashed by injection), returning the
	// result the faulting process observes.
	deliverFault(c *managerCell, f Fault) error
	// notifyDeleted routes a segment-deletion notice to c's manager and
	// blocks until the manager has salvaged its frames.
	notifyDeleted(c *managerCell, s *Segment)
	// revoke discards the queued messages of c's manager, answering each
	// pending delivery with nil so the faulting processes retry (and
	// re-resolve to the manager that adopted their segments), and retires
	// the manager's lane. The serial scheduler queues nothing.
	revoke(c *managerCell)
}

// deliveryKind discriminates plane messages.
type deliveryKind int

const (
	msgFault deliveryKind = iota
	msgDelete
	msgExec
)

// delivery is one message on a concurrent lane. Exactly one of the payload
// fields is meaningful, per kind; a queued message's poster waits on reply.
type delivery struct {
	kind  deliveryKind
	cell  *managerCell // the receiving manager's record
	fault Fault        // msgFault
	seg   *Segment     // msgDelete
	fn    func()       // msgExec
	reply chan error
}

// process runs one lane message to completion. A fault message is a fault
// run of one, delivered in the caller's one-element scratch (unused for the
// other kinds); runs the concurrent scheduler drains off a lane go to
// processFaultRun directly.
func (k *Kernel) process(d delivery, fs []Fault, errs []error) error {
	switch d.kind {
	case msgFault:
		var idx [1]int
		fs[0] = d.fault
		k.processFaultRun(d.cell, fs[:1], errs[:1], idx[:])
		return errs[0]
	case msgDelete:
		k.processDelete(d.cell, d.seg)
		return nil
	default:
		d.fn()
		return nil
	}
}

// processDelete is the deletion-notice path: one manager call, the delivery
// cost, and the manager's salvage pass.
func (k *Kernel) processDelete(c *managerCell, s *Segment) {
	k.stats.ManagerCalls.Add(uint64(s.id), 1)
	k.chargeDelivery(s.id, c.m.Delivery())
	c.m.SegmentDeleted(s)
}

// ---------------------------------------------------------------------------
// Serial scheduler

// serialScheduler runs every message as a direct call on the calling
// goroutine. No queue is needed to order them: with one goroutine
// delivering, a message posted while another is being handled (a nested
// delivery) must finish before that handler resumes, so call order is the
// only order there is. It is not safe for concurrent callers; that is the
// concurrent scheduler's job. Nor is the kernel under it: a serial kernel
// takes no segment lock (Segment.lock), since its mapping table and one TLB
// are unsynchronized anyway, so one goroutine at a time may be in it.
type serialScheduler struct {
	k *Kernel
	// free stacks the run-of-one scratch faults are delivered in: fs and
	// errs reach the handler through an interface, so they live on the heap,
	// and a delivery nested inside a handler pops its own — the outer
	// fault's scratch is still in use below it.
	free []*faultScratch
}

// faultScratch is one serial delivery's run of one.
type faultScratch struct {
	fault [1]Fault
	err   [1]error
	idx   [1]int
}

// NewSerialScheduler returns the deterministic, single-goroutine scheduler.
// It is the default installed by New.
func NewSerialScheduler(k *Kernel) Scheduler {
	return &serialScheduler{k: k}
}

func (s *serialScheduler) Name() string     { return "serial" }
func (s *serialScheduler) Concurrent() bool { return false }

func (s *serialScheduler) deliverFault(c *managerCell, f Fault) error {
	var sc *faultScratch
	if n := len(s.free); n > 0 {
		sc, s.free = s.free[n-1], s.free[:n-1]
	} else {
		sc = new(faultScratch)
	}
	sc.fault[0] = f
	s.k.processFaultRun(c, sc.fault[:], sc.err[:], sc.idx[:])
	err := sc.err[0]
	sc.fault[0], sc.err[0] = Fault{}, nil // hold no segment or error past the call
	s.free = append(s.free, sc)
	return err
}

func (s *serialScheduler) notifyDeleted(c *managerCell, seg *Segment) {
	s.k.processDelete(c, seg)
}

func (s *serialScheduler) Exec(_ Manager, fn func()) { fn() }

// revoke has nothing to discard: no serial message is ever queued. A fault
// whose manager is revoked mid-handling is answered by processFaultRun.
func (s *serialScheduler) revoke(*managerCell) {}

func (s *serialScheduler) Stop() {}

// ---------------------------------------------------------------------------
// Concurrent scheduler

// laneRingCap bounds in-flight messages per manager lane. Each posting
// goroutine has at most one message outstanding, so the cap only matters
// when more drivers than this share one manager; a full ring just makes
// producers yield.
const laneRingCap = 256

// lane is one manager's delivery context under the concurrent scheduler: a
// contention-free MPSC ring of pending messages and a combining token. The
// goroutine holding the token is the lane's executor — it drains the ring
// and processes messages in arrival order, giving each manager the strict
// message serialization the paper's separate manager processes have,
// without a dedicated worker goroutine or a lock rendezvous per message.
type lane struct {
	ring    *plane.Ring[delivery]
	token   atomic.Bool
	revoked atomic.Bool
	// maint is the manager's optional idle hook (LaneMaintainer), resolved
	// once at lane creation so the hot path pays no type assertion.
	maint LaneMaintainer
	// buf is the executor's drain batch; vecFaults/vecErrs/vecIdx are the
	// scratch a fault run is delivered in (processFaultRun, vector.go).
	// Only the token holder touches any of them, so none need
	// synchronization, and a delivery allocates nothing.
	buf       [laneDrainBatch]plane.Envelope[delivery]
	vecFaults [laneDrainBatch]Fault
	vecErrs   [laneDrainBatch]error
	vecIdx    [laneDrainBatch]int
}

// laneDrainBatch is how many queued messages the executor pulls from the
// ring per PopMany — one head publication amortized over the batch, and so
// the ceiling on how many faults one vectored upcall can carry.
const laneDrainBatch = 64

// LaneMaintainer is an optional Manager extension. When a manager
// implements it, the concurrent scheduler calls LaneIdle on the lane's
// executor goroutine each time the lane goes quiet (ring drained, token
// about to be released). The call is serialized with the manager's message
// processing, so implementations may touch manager state freely; they
// should be cheap when there is nothing to do, since the lane goes idle
// after every fault burst. Generic uses it to batch-refill its free-slot
// pool off the fault path.
type LaneMaintainer interface {
	LaneIdle()
}

// concurrentScheduler delivers by flat combining: the faulting goroutine
// that finds a manager's lane idle takes the combining token and processes
// its own message inline — no enqueue, no channel, no goroutine switch — so
// N applications faulting against N managers run their managers' code on
// their own CPUs. Only when a lane is busy does a delivery enqueue onto the
// lane's ring and wait for the current token holder (which drains the ring
// before releasing, and re-checks after releasing, so no message is
// stranded) to answer its reply channel.
type concurrentScheduler struct {
	k *Kernel
	// mu serializes lane creation against Stop. A manager's lane hangs off
	// its record, so the per-fault path reaches it with one atomic load.
	mu      sync.Mutex
	stopped bool
}

// NewConcurrentScheduler returns the per-manager-lane concurrent scheduler.
// Install it with Kernel.SetScheduler (which also swaps the mapping table for
// its lock-free CAS variant and gives each segment a TLB of its own), and
// Stop it when the run ends.
func NewConcurrentScheduler(k *Kernel) Scheduler {
	return &concurrentScheduler{k: k}
}

func (s *concurrentScheduler) Name() string     { return "concurrent" }
func (s *concurrentScheduler) Concurrent() bool { return true }

// laneOf returns the lane of c's manager, creating it on first use. Returns
// nil after Stop.
func (s *concurrentScheduler) laneOf(c *managerCell) *lane {
	if ln := c.lane.Load(); ln != nil {
		return ln
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil
	}
	ln := c.lane.Load()
	if ln == nil {
		ln = &lane{ring: plane.NewRing[delivery](laneRingCap)}
		ln.maint, _ = c.m.(LaneMaintainer)
		c.lane.Store(ln)
	}
	return ln
}

// drainCells processes every queued message of a lane. The caller must hold
// the lane's combining token. Messages of a revoked lane are answered nil —
// lost deliveries, so the faulting processes retry against the adopting
// manager. Consecutive fault messages popped in one batch are one run, and
// a run is one delivery (vector.go) — of one fault on a lightly loaded lane,
// which never pops more, and of up to laneDrainBatch when producers queue.
func (s *concurrentScheduler) drainCells(ln *lane) {
	for {
		n := ln.ring.PopMany(ln.buf[:])
		if n == 0 {
			return
		}
		for i := 0; i < n; {
			if ln.revoked.Load() {
				replyRun(ln.buf[i:n], nil)
				break
			}
			run := faultRunLen(ln.buf[i:n])
			if run == 0 {
				ln.vecErrs[0] = s.k.process(ln.buf[i].Msg, nil, nil)
				replyRun(ln.buf[i:i+1], ln.vecErrs[:1])
				i++
				continue
			}
			for j := 0; j < run; j++ {
				ln.vecFaults[j] = ln.buf[i+j].Msg.fault
			}
			s.k.processFaultRun(ln.buf[i].Msg.cell, ln.vecFaults[:run], ln.vecErrs[:run], ln.vecIdx[:run])
			replyRun(ln.buf[i:i+run], ln.vecErrs[:run])
			i += run
		}
	}
}

// combine drains the lane until it is empty with the token released — the
// release-then-recheck closes the race where a producer enqueues just after
// the holder's last pop: either the producer's own token CAS succeeds, or
// this holder's recheck sees the message.
func (s *concurrentScheduler) combine(ln *lane) {
	for {
		s.drainCells(ln)
		if ln.maint != nil && !ln.revoked.Load() {
			ln.maint.LaneIdle()
			s.drainCells(ln) // anything posted while maintaining
		}
		ln.token.Store(false)
		if ln.ring.Len() == 0 {
			return
		}
		if !ln.token.CompareAndSwap(false, true) {
			return // another goroutine took over the lane
		}
	}
}

// post delivers one message to c's manager. Fast path: the lane is idle, so
// the calling goroutine takes the token and runs the manager inline. Slow
// path: enqueue with a reply channel, help combine if the token frees up,
// and wait for the answer. A nil return with no processing (stopped scheduler,
// revoked manager) is a lost delivery; the caller's retry loop re-resolves
// and re-routes.
func (s *concurrentScheduler) post(c *managerCell, d delivery) error {
	ln := s.laneOf(c)
	if ln == nil {
		return nil
	}
	d.cell = c
	if ln.ring.Len() == 0 && ln.token.CompareAndSwap(false, true) {
		if ln.revoked.Load() {
			ln.token.Store(false)
			return nil
		}
		s.drainCells(ln) // anything that slipped in first, in order
		err := s.k.process(d, ln.vecFaults[:1], ln.vecErrs[:1])
		s.combine(ln) // drains again, then releases with recheck
		return err
	}
	d.reply = make(chan error, 1)
	if !ln.ring.Put(s.k.clock.Now(), d) {
		return nil // revoked while posting: lost delivery
	}
	if ln.token.CompareAndSwap(false, true) {
		s.combine(ln)
	}
	// Either this goroutine just combined (answering its own message along
	// the way) or the token holder at CAS time is bound to see the message
	// on its release-recheck.
	return <-d.reply
}

func (s *concurrentScheduler) deliverFault(c *managerCell, f Fault) error {
	return s.post(c, delivery{kind: msgFault, fault: f})
}

func (s *concurrentScheduler) notifyDeleted(c *managerCell, seg *Segment) {
	s.post(c, delivery{kind: msgDelete, seg: seg})
}

func (s *concurrentScheduler) Exec(m Manager, fn func()) {
	s.post(s.k.cellOf(m), delivery{kind: msgExec, fn: fn})
}

// revoke marks the lane of c's manager dead and answers everything still
// queued with nil; the dead lane stays on the record, so a delivery that
// resolved c before its segments were adopted is lost, not handled. If the
// token is held — including by this goroutine itself, when a manager crash
// is detected mid-processing and recovery revokes the manager from inside
// its own lane — the holder's drain loop sees the revoked flag and answers
// nil itself.
func (s *concurrentScheduler) revoke(c *managerCell) {
	ln := c.lane.Load()
	if ln == nil {
		return
	}
	ln.revoked.Store(true)
	ln.ring.Close()
	if ln.token.CompareAndSwap(false, true) {
		s.combine(ln)
	}
}

// Stop retires every lane: further deliveries are refused (nil results) and
// queued messages are answered nil. Messages being processed inline finish
// on their posting goroutines; call Stop from outside any delivery (for
// example System.Shutdown or a test's cleanup), when the drivers have
// returned.
func (s *concurrentScheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true // no lane is made from here on
	s.mu.Unlock()
	s.k.mgrMu.Lock()
	cells := make([]*managerCell, 0, len(s.k.managers))
	for _, c := range s.k.managers {
		cells = append(cells, c)
	}
	s.k.mgrMu.Unlock()
	for _, c := range cells {
		s.revoke(c) // outside mgrMu: draining a lane runs manager code
	}
}

// ---------------------------------------------------------------------------
// Kernel integration

// Scheduler returns the installed delivery-plane scheduler.
func (k *Kernel) Scheduler() Scheduler { return k.sched }

// SetScheduler installs a scheduler, stopping any previous one. Installing
// a concurrent scheduler also swaps the mapping hash table for its
// lock-free CAS variant (castable.go) and moves translation caching to one
// R3000 TLB per segment (tlbOf): the kernel's one TLB would be written by
// every lane, so which install evicts which would depend on goroutine
// timing, while a segment's TLB is only touched under the segment's lock.
// Both are pure caches over the authoritative segment page maps, so starting
// them cold is correct (it only costs some extra virtual refill time). A
// kernel that has run concurrent stays that way under a later scheduler, as
// its table does.
func (k *Kernel) SetScheduler(s Scheduler) {
	if k.sched != nil {
		k.sched.Stop()
		// The old scheduler's lanes are not the new one's.
		k.mgrMu.Lock()
		for _, c := range k.managers {
			c.lane.Store(nil)
		}
		k.mgrMu.Unlock()
	}
	k.sched = s
	if s.Concurrent() {
		// Size the table for the machine: every live mapping is a resident
		// page owning at least one frame, so 2x the frame count keeps the
		// load factor under 50% and the probe window effective. The default
		// 64K floor matches the serial table.
		slots := hashTableSlots
		for slots < 2*k.mem.NumFrames() {
			slots <<= 1
		}
		k.table = newCASTableSized(slots)
		k.concurrent = true
	}
}

// ParseScheduler maps a scheduler name to Config.Concurrent: "serial" (or
// "") is the deterministic serial scheduler, "concurrent" the concurrent one.
func ParseScheduler(name string) (concurrent bool, err error) {
	switch name {
	case "", "serial":
		return false, nil
	case "concurrent":
		return true, nil
	default:
		return false, fmt.Errorf("kernel: unknown scheduler %q (want serial or concurrent)", name)
	}
}

// deliverFault resolves the faulted segment's manager and hands the fault
// to the scheduler.
func (k *Kernel) deliverFault(f Fault) error {
	c := f.Seg.manager.Load()
	if c == nil {
		return pageError(ErrNoManager, f.Seg, f.Page)
	}
	return k.sched.deliverFault(c, f)
}
