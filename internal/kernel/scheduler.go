package kernel

import (
	"errors"
	"fmt"
)

// This file is the fault-delivery plane: the one path by which faults,
// deletion notices and Exec bodies reach a manager. A delivery is a call on
// the goroutine that makes it, in both scheduler modes. The paper's kernel
// serializes a manager's faults (§2.1) — one manager process takes one
// message at a time, or the faulting process runs the handler itself — so a
// manager handles one fault at a time, and on a concurrent kernel the mutex
// on its record (managerCell.handling) says exactly that. The mutex is the
// only difference between the modes: a serial kernel is driven by one
// goroutine at a time and takes none, as it takes no segment lock
// (Segment.lock) and no mapping-table stripe (mappingTable.share).
//
// Every fault reaches its manager alone: one fault, one upcall, one
// resolve, as in the paper's kernel, whose Table 1 times exactly that path.
// Injection (DeliveryInterceptor), cost accounting (chargeDelivery and
// chargeReturn) and crash recovery (Revoke) all live in processFault and
// processDelete below, so both modes charge, count and recover alike.

// Scheduler is a kernel's delivery mode: serial, the deterministic default
// New installs, or concurrent (Config.Concurrent, or NewConcurrentScheduler
// with SetScheduler), which lets N applications fault against N managers in
// parallel. Both deliver through enter, processFault or processDelete, and
// leave.
type Scheduler struct {
	k          *Kernel
	concurrent bool
}

// NewConcurrentScheduler returns the concurrent delivery mode. Install it
// with Kernel.SetScheduler, which also shares the mapping table under its
// lock stripes and gives each segment a TLB of its own.
func NewConcurrentScheduler(k *Kernel) *Scheduler {
	return &Scheduler{k: k, concurrent: true}
}

// Concurrent reports whether managers may be called from several
// goroutines at once. When true the kernel shares its mapping table under
// lock stripes at install time and gives each segment its own TLB.
func (s *Scheduler) Concurrent() bool { return s.concurrent }

// Exec runs fn as a delivery to m: on a concurrent kernel under m's handling
// mutex, so recovery can run segment adoption serialized with the adopting
// manager's faults, and the manager needs no internal locking. fn does not
// run if m was revoked while Exec waited.
func (s *Scheduler) Exec(m Manager, fn func()) {
	c := s.k.cellOf(m)
	if s.k.enter(c) {
		fn()
		s.k.leave(c)
	}
}

// Stop ends a run. Every delivery runs on the goroutine that makes it, so
// there is no worker goroutine or queued message to release, and Stop does
// nothing; it stays because bench/ tears its kernels down through it.
func (s *Scheduler) Stop() {}

// LaneMaintainer is an optional Manager extension. On a concurrent kernel
// the delivery path calls LaneIdle after every delivery to the manager —
// fault, deletion notice or Exec — before it releases the manager's
// handling mutex, unless that delivery revoked the manager. The call is
// serialized with the manager's fault handling, so implementations may
// touch manager state freely; it follows every fault, so it should be
// cheap when there is nothing to do. A serial kernel never calls it.
// Generic uses it to refill its free-slot pool off the fault path
// (manager.Config.LanePrefetch).
type LaneMaintainer interface {
	LaneIdle()
}

// enter begins one delivery to c's manager. A serial kernel takes nothing.
// A concurrent one takes c.handling and then reports false, letting it go,
// if the manager was revoked meanwhile: a lost delivery, which the caller
// answers nil so the faulting process retries against the adopter.
func (k *Kernel) enter(c *managerCell) bool {
	return !k.concurrent || c.enter()
}

func (c *managerCell) enter() bool {
	c.handling.Lock()
	if c.revoked.Load() {
		c.handling.Unlock()
		return false
	}
	return true
}

// leave ends a delivery enter began: on a concurrent kernel the manager's
// idle hook runs, unless the delivery revoked it, and c.handling is let go.
func (k *Kernel) leave(c *managerCell) {
	if k.concurrent {
		c.leave()
	}
}

func (c *managerCell) leave() {
	if c.maint != nil && !c.revoked.Load() {
		c.maint.LaneIdle()
	}
	c.handling.Unlock()
}

// deliverFault resolves the faulted segment's manager and delivers the
// fault to it.
func (k *Kernel) deliverFault(f Fault) error {
	c := f.Seg.manager.Load()
	if c == nil {
		return pageError(ErrNoManager, f.Seg, f.Page)
	}
	if !k.enter(c) {
		return nil
	}
	err := k.processFault(c, f)
	k.leave(c)
	return err
}

// processFault is the delivery path of one fault f for the manager of record
// c: statistics, the trap cost, the injection interceptor, the delivery cost
// for the manager's mode, the handler, crash containment, and the return
// cost, which is paid only when the handler resolved the fault. It returns
// nil for a resolved fault and for a lost delivery — dropped, or the manager
// crashed and was revoked — where the faulting process simply re-faults
// (against the adopting manager, after a crash). A crash surfaces only when
// no manager can adopt the segment.
func (k *Kernel) processFault(c *managerCell, f Fault) error {
	m, seg := c.m, f.Seg.id
	k.stats.ManagerCalls.Add(uint64(seg), 1)
	k.clock.AdvanceOn(uint64(seg), k.cost.Trap)
	k.stats.Faults.Add(uint64(seg), 1)
	switch f.Kind {
	case FaultMissing:
		k.stats.MissingFaults.Add(uint64(seg), 1)
	case FaultProtection:
		k.stats.ProtFaults.Add(uint64(seg), 1)
	case FaultCopyOnWrite:
		k.stats.COWFaults.Add(uint64(seg), 1)
	}
	if k.interceptor != nil {
		switch r := k.interceptor(f, m); {
		case r.Crash:
			// The manager process died before fielding the fault. Revoke
			// it; the retry loop re-delivers to the default manager.
			if _, rerr := k.Revoke(m); rerr != nil {
				return pageError(fmt.Errorf("%w: %q: %w", ErrManagerCrashed, m.ManagerName(), rerr), f.Seg, f.Page)
			}
			return nil
		case r.Drop:
			k.stats.DroppedDeliveries.Add(1)
			return nil
		case r.Delay > 0:
			k.stats.DelayedDeliveries.Add(1)
			k.clock.AdvanceOn(uint64(seg), r.Delay)
		}
	}
	k.chargeDelivery(seg, m.Delivery())
	if err := m.HandleFault(f); err != nil {
		// A manager that died mid-handling is revoked and the fault is a
		// lost delivery: resolved or not, the retry is absorbed by the
		// page-present check or re-faults to the adopter. Resolution is
		// MigratePages into the faulted page, which the kernel rejects with
		// ErrPageBusy if run twice, so nothing double-resolves.
		if errors.Is(err, ErrManagerCrashed) {
			if _, rerr := k.Revoke(m); rerr == nil {
				return nil
			}
		}
		return fmt.Errorf("%w: %q on %v: %w", ErrManagerFailed, m.ManagerName(), f, err)
	}
	k.chargeReturn(seg, m.Delivery())
	return nil
}

// processDelete is the deletion-notice path: one manager call, the delivery
// cost, and the manager's salvage pass.
func (k *Kernel) processDelete(c *managerCell, s *Segment) {
	k.stats.ManagerCalls.Add(uint64(s.id), 1)
	k.chargeDelivery(s.id, c.m.Delivery())
	c.m.SegmentDeleted(s)
}

// Scheduler returns the installed delivery mode.
func (k *Kernel) Scheduler() *Scheduler { return k.sched }

// SetScheduler installs a delivery mode. Installing the concurrent one also
// shares the mapping hash table (its lock stripes, hashtable.go) and moves
// translation caching to one R3000 TLB per segment (tlbOf): the kernel's one
// TLB would be written by every driver, so which install evicts which would
// depend on goroutine timing, while a segment's TLB is only touched under
// the segment's lock. Per-segment TLBs are pure caches over the
// authoritative segment page maps, so starting them cold is correct (it
// only costs some extra virtual refill time). Install it while no delivery
// is in flight; the kernel stays concurrent from then on, as its table
// stays shared.
func (k *Kernel) SetScheduler(s *Scheduler) {
	k.sched = s
	if s.concurrent {
		k.table.share()
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
