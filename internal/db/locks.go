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

// lockWait is one queued request.
type lockWait struct {
	owner interface{}
	mode  Mode
	proc  *sim.Proc
}

// lock is one lockable resource. It counts its granted holds per mode; whose
// they are is recorded once, in the owners' hold lists, so a grant decision
// is four compares however many open transactions hold IX on "db".
type lock struct {
	name  string
	held  [4]int32 // granted holds per Mode
	queue []lockWait
}

// blocked reports whether holds numbering held per mode rule out mode.
func blocked(held *[4]int32, mode Mode) bool {
	ok := &compatible[mode]
	return held[IS] > 0 && !ok[IS] || held[IX] > 0 && !ok[IX] || held[S] > 0 && !ok[S] || held[X] > 0 && !ok[X]
}

// holdList is the holds of one owner, in acquisition order; a hold is one
// grant of l in mode.
type holdList struct{ holds []hold }

type hold struct {
	l    *lock
	mode Mode
}

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
	// held is the only record of who holds what: every grant (immediate
	// or to a woken waiter) appends the lock and mode to its owner's list,
	// in acquisition order, so ReleaseAll visits only what the owner holds
	// instead of every lock ever created. A lock acquired twice is listed
	// twice. The map holds pointers so a grant to a known owner is one
	// lookup and no store.
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

// grantable reports whether no hold on l by anyone but owner conflicts with
// mode (re-entrant same-owner holds are always allowed in this model, since
// transactions acquire in a fixed hierarchy order): when the counts show a
// conflict, the owner's own holds on l are discounted from them first.
func (m *LockManager) grantable(l *lock, owner interface{}, mode Mode) bool {
	if !blocked(&l.held, mode) {
		return true
	}
	others := l.held
	if hl := m.held[owner]; hl != nil {
		for _, h := range hl.holds {
			if h.l == l {
				others[h.mode]--
			}
		}
	}
	return !blocked(&others, mode)
}

// grant records a hold: counted on the lock, listed under its owner.
func (m *LockManager) grant(l *lock, owner interface{}, mode Mode) {
	l.held[mode]++
	hl := m.held[owner]
	if hl == nil {
		if n := len(m.heldFree); n > 0 {
			hl, m.heldFree = m.heldFree[n-1], m.heldFree[:n-1]
		} else {
			hl = new(holdList)
		}
		m.held[owner] = hl
	}
	hl.holds = append(hl.holds, hold{l, mode})
}

// forget unlinks owner's (emptied or about to be emptied) hold list.
func (m *LockManager) forget(owner interface{}, hl *holdList) {
	delete(m.held, owner)
	hl.holds = hl.holds[:0]
	m.heldFree = append(m.heldFree, hl)
}

// drop releases every hold on l listed in holds, clearing the entries.
func (m *LockManager) drop(l *lock, holds []hold) {
	for i, h := range holds {
		if h.l == l {
			l.held[h.mode]--
			m.stats.Released++
			holds[i].l = nil
		}
	}
}

// Acquire obtains `name` in `mode` on behalf of owner, blocking the calling
// process in FIFO order until compatible. Owners must acquire locks in a
// consistent hierarchy order (database, relation, page, index) — the model
// relies on ordering, not detection, for deadlock freedom.
func (m *LockManager) Acquire(p *sim.Proc, owner interface{}, name string, mode Mode) {
	m.acquire(p, owner, m.lockFor(name), mode)
}

// acquire is Acquire on a resolved lock, where db.System enters.
func (m *LockManager) acquire(p *sim.Proc, owner interface{}, l *lock, mode Mode) {
	m.stats.Acquires++
	if (m.Barging || len(l.queue) == 0) && m.grantable(l, owner, mode) {
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
	l := m.locks[name]
	if l == nil {
		return
	}
	if hl := m.held[owner]; hl != nil {
		m.drop(l, hl.holds)
		hl.holds = slices.DeleteFunc(hl.holds, func(h hold) bool { return h.l == nil })
		if len(hl.holds) == 0 {
			m.forget(owner, hl)
		}
	}
	m.grantWaiters(l)
}

// ReleaseAll drops every hold owner has anywhere (two-phase commit point),
// lock by lock in the order the owner first acquired them — a lock's holds
// all go, then its waiters are granted — so the order in which waiters of
// different locks wake is a function of the run, not of map iteration.
func (m *LockManager) ReleaseAll(owner interface{}) {
	hl := m.held[owner]
	if hl == nil {
		return
	}
	for i, h := range hl.holds {
		if l := h.l; l != nil { // nil: released with the lock's first listing
			m.drop(l, hl.holds[i:])
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
			if !m.grantable(l, w.owner, w.mode) {
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
		if m.grantable(l, w.owner, w.mode) {
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
		return int(l.held[IS] + l.held[IX] + l.held[S] + l.held[X])
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
