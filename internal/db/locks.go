// Package db implements the paper's §3.3 evaluation application: a
// simulated parallel database transaction-processing system in the style of
// the paper's own program — "the locks were implemented and the parallelism
// is real. However, the execution of a transaction is simulated by looping
// for some number of instructions and a page fault is simulated by a
// delay". Here the parallelism is real simulated-process parallelism over
// the sim package's deterministic scheduler, the hierarchical locks are
// fully implemented, and execution/faults are virtual-time delays.
package db

import (
	"fmt"
	"slices"

	"epcm/internal/sim"
)

// Mode is a hierarchical lock mode.
type Mode int

// Lock modes: intention-shared, intention-exclusive, shared, exclusive.
const (
	IS Mode = iota
	IX
	S
	X
)

func (m Mode) String() string {
	switch m {
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case X:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// compatible is the standard hierarchical-locking compatibility matrix.
var compatible = [4][4]bool{
	//         IS     IX     S      X
	IS: {true, true, true, false},
	IX: {true, true, false, false},
	S:  {true, false, true, false},
	X:  {false, false, false, false},
}

// Compatible reports whether two modes can be held simultaneously.
func Compatible(a, b Mode) bool { return compatible[a][b] }

// lockHold is one granted hold.
type lockHold struct {
	owner interface{}
	mode  Mode
}

// lockWait is one queued request.
type lockWait struct {
	owner interface{}
	mode  Mode
	proc  *sim.Proc
}

// lock is one lockable resource.
type lock struct {
	name    string
	granted []lockHold
	queue   []lockWait
}

// grantable reports whether a request is compatible with every current
// holder (excluding holds by the same owner: re-entrant same-owner holds
// are always allowed in this model, since transactions acquire in a fixed
// hierarchy order).
func (l *lock) grantable(owner interface{}, mode Mode) bool {
	for _, h := range l.granted {
		if h.owner == owner {
			continue
		}
		if !Compatible(h.mode, mode) {
			return false
		}
	}
	return true
}

// holdList is the locks one owner holds, in acquisition order.
type holdList struct{ locks []*lock }

// LockStats counts lock-manager activity.
type LockStats struct {
	Acquires int64
	Waits    int64 // acquisitions that blocked
	Released int64
}

// LockManager is a hierarchical lock manager. Its default queueing is FIFO
// (no barging): a request waits if an earlier request is still waiting,
// which prevents reader streams from starving writers. With Barging set,
// the manager grants any compatible request immediately (reader
// preference), letting concurrent relation scans share their S locks — the
// policy the simulated DBMS uses, trading writer latency for scan
// throughput.
type LockManager struct {
	env   *sim.Env
	locks map[string]*lock
	// held indexes the locks by owner: every grant (immediate or to a
	// woken waiter) appends the lock to its owner's list, in acquisition
	// order, so ReleaseAll visits only what the owner holds instead of
	// every lock ever created. A lock acquired twice is listed twice; the
	// second visit finds nothing left to drop. The map holds pointers so
	// a grant to a known owner is one lookup and no store.
	held map[interface{}]*holdList
	// heldFree recycles emptied hold lists so a steady stream of short
	// transactions allocates none.
	heldFree []*holdList
	// Barging enables reader-preference granting.
	Barging bool
	// waited records per-acquisition wait times for diagnosis.
	waited sim.Series
	stats  LockStats
}

// NewLockManager builds a lock manager over the simulation environment.
func NewLockManager(env *sim.Env) *LockManager {
	return &LockManager{
		env:   env,
		locks: make(map[string]*lock),
		held:  make(map[interface{}]*holdList),
	}
}

// Stats returns a snapshot of activity counters.
func (m *LockManager) Stats() LockStats { return m.stats }

// WaitStats returns the distribution of lock-wait times.
func (m *LockManager) WaitStats() *sim.Series { return &m.waited }

func (m *LockManager) lockFor(name string) *lock {
	l, ok := m.locks[name]
	if !ok {
		l = &lock{name: name}
		m.locks[name] = l
	}
	return l
}

// grant records a hold and indexes it under its owner.
func (m *LockManager) grant(l *lock, owner interface{}, mode Mode) {
	l.granted = append(l.granted, lockHold{owner: owner, mode: mode})
	hl := m.held[owner]
	if hl == nil {
		if n := len(m.heldFree); n > 0 {
			hl, m.heldFree = m.heldFree[n-1], m.heldFree[:n-1]
		} else {
			hl = new(holdList)
		}
		m.held[owner] = hl
	}
	hl.locks = append(hl.locks, l)
}

// forget unlinks owner's (emptied or about to be emptied) hold list.
func (m *LockManager) forget(owner interface{}, hl *holdList) {
	delete(m.held, owner)
	hl.locks = hl.locks[:0]
	m.heldFree = append(m.heldFree, hl)
}

// drop removes every hold owner has on l, reporting whether any existed.
func (m *LockManager) drop(l *lock, owner interface{}) bool {
	kept := l.granted[:0]
	for _, h := range l.granted {
		if h.owner == owner {
			m.stats.Released++
			continue
		}
		kept = append(kept, h)
	}
	changed := len(kept) != len(l.granted)
	l.granted = kept
	return changed
}

// Acquire obtains `name` in `mode` on behalf of owner, blocking the calling
// process in FIFO order until compatible. Owners must acquire locks in a
// consistent hierarchy order (database, relation, page, index) — the model
// relies on ordering, not detection, for deadlock freedom.
func (m *LockManager) Acquire(p *sim.Proc, owner interface{}, name string, mode Mode) {
	m.stats.Acquires++
	l := m.lockFor(name)
	if (m.Barging || len(l.queue) == 0) && l.grantable(owner, mode) {
		m.grant(l, owner, mode)
		m.waited.Add(0)
		return
	}
	m.stats.Waits++
	start := p.Now()
	l.queue = append(l.queue, lockWait{owner: owner, mode: mode, proc: p})
	p.Park()
	m.waited.Add(p.Now() - start)
	// The releaser granted the hold before waking us.
}

// Release drops every hold owner has on `name` and grants waiters.
func (m *LockManager) Release(owner interface{}, name string) {
	l := m.lockFor(name)
	m.drop(l, owner)
	if hl := m.held[owner]; hl != nil {
		hl.locks = slices.DeleteFunc(hl.locks, func(h *lock) bool { return h == l })
		if len(hl.locks) == 0 {
			m.forget(owner, hl)
		}
	}
	m.grantWaiters(l)
}

// ReleaseAll drops every hold owner has anywhere (two-phase commit point),
// lock by lock in the order the owner acquired them, so the order in which
// waiters of different locks wake is a function of the run, not of map
// iteration.
func (m *LockManager) ReleaseAll(owner interface{}) {
	hl := m.held[owner]
	if hl == nil {
		return
	}
	for _, l := range hl.locks {
		if m.drop(l, owner) {
			m.grantWaiters(l)
		}
	}
	m.forget(owner, hl)
}

// grantWaiters grants queued requests: in FIFO order until the head is
// incompatible, or — with Barging — every compatible waiter regardless of
// position.
func (m *LockManager) grantWaiters(l *lock) {
	if !m.Barging {
		for len(l.queue) > 0 {
			w := l.queue[0]
			if !l.grantable(w.owner, w.mode) {
				return
			}
			l.queue = l.queue[1:]
			m.grant(l, w.owner, w.mode)
			m.env.Wake(w.proc)
		}
		return
	}
	kept := l.queue[:0]
	for _, w := range l.queue {
		if l.grantable(w.owner, w.mode) {
			m.grant(l, w.owner, w.mode)
			m.env.Wake(w.proc)
		} else {
			kept = append(kept, w)
		}
	}
	l.queue = kept
}

// Holders reports the number of current holders of a lock (tests).
func (m *LockManager) Holders(name string) int {
	if l, ok := m.locks[name]; ok {
		return len(l.granted)
	}
	return 0
}

// QueueLen reports the number of waiters on a lock (tests).
func (m *LockManager) QueueLen(name string) int {
	if l, ok := m.locks[name]; ok {
		return len(l.queue)
	}
	return 0
}
