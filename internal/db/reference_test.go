package db

import (
	"slices"

	"epcm/internal/sim"
)

// refLockManager is the lock manager as it was before its locks kept
// per-mode counts and its bodies took the owner's record, kept as the
// reference FuzzLockManager and BenchmarkLockCycle compare LockManager
// against: owners are keys throughout, a lock lists its holds, grantable and
// drop walk that list comparing owners, and an owner's hold list carries the
// locks only. The bodies below are the old ones.

// refLockHold is one granted hold.
type refLockHold struct {
	owner interface{}
	mode  Mode
}

// refLockWait is one queued request, by the owner's key.
type refLockWait struct {
	owner interface{}
	mode  Mode
	proc  *sim.Proc
}

// refLock is one lockable resource: every granted hold, in grant order.
type refLock struct {
	name    string
	granted []refLockHold
	queue   []refLockWait
}

// grantable reports whether a request is compatible with every current
// holder (excluding holds by the same owner: re-entrant same-owner holds
// are always allowed in this model, since transactions acquire in a fixed
// hierarchy order).
func (l *refLock) grantable(owner interface{}, mode Mode) bool {
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

// refHoldList is the locks one owner holds, in acquisition order.
type refHoldList struct{ locks []*refLock }

// refLockManager has LockManager's queueing rules (FIFO, or reader
// preference with Barging) over those lists.
type refLockManager struct {
	env   *sim.Env
	locks map[string]*refLock
	// held indexes the locks by owner: every grant (immediate or to a
	// woken waiter) appends the lock to its owner's list, in acquisition
	// order, so ReleaseAll visits only what the owner holds instead of
	// every lock ever created. A lock acquired twice is listed twice; the
	// second visit finds nothing left to drop. The map holds pointers so
	// a grant to a known owner is one lookup and no store.
	held map[interface{}]*refHoldList
	// heldFree recycles emptied hold lists so a steady stream of short
	// transactions allocates none.
	heldFree []*refHoldList
	// Barging enables reader-preference granting.
	Barging bool
	stats   LockStats
}

func newRefLockManager(env *sim.Env) *refLockManager {
	return &refLockManager{
		env:   env,
		locks: make(map[string]*refLock),
		held:  make(map[interface{}]*refHoldList),
	}
}

// Stats returns a snapshot of activity counters.
func (m *refLockManager) Stats() LockStats { return m.stats }

func (m *refLockManager) lockFor(name string) *refLock {
	l, ok := m.locks[name]
	if !ok {
		l = &refLock{name: name}
		m.locks[name] = l
	}
	return l
}

// grant records a hold and indexes it under its owner.
func (m *refLockManager) grant(l *refLock, owner interface{}, mode Mode) {
	l.granted = append(l.granted, refLockHold{owner: owner, mode: mode})
	hl := m.held[owner]
	if hl == nil {
		if n := len(m.heldFree); n > 0 {
			hl, m.heldFree = m.heldFree[n-1], m.heldFree[:n-1]
		} else {
			hl = new(refHoldList)
		}
		m.held[owner] = hl
	}
	hl.locks = append(hl.locks, l)
}

// forget unlinks owner's (emptied or about to be emptied) hold list.
func (m *refLockManager) forget(owner interface{}, hl *refHoldList) {
	delete(m.held, owner)
	hl.locks = hl.locks[:0]
	m.heldFree = append(m.heldFree, hl)
}

// drop removes every hold owner has on l, reporting whether any existed.
func (m *refLockManager) drop(l *refLock, owner interface{}) bool {
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
func (m *refLockManager) Acquire(p *sim.Proc, owner interface{}, name string, mode Mode) {
	m.stats.Acquires++
	l := m.lockFor(name)
	if (m.Barging || len(l.queue) == 0) && l.grantable(owner, mode) {
		m.grant(l, owner, mode)
		return
	}
	m.stats.Waits++
	l.queue = append(l.queue, refLockWait{owner: owner, mode: mode, proc: p})
	p.Park() // the releaser grants the hold before waking us
}

// Release drops every hold owner has on `name` and grants waiters.
func (m *refLockManager) Release(owner interface{}, name string) {
	l := m.lockFor(name)
	m.drop(l, owner)
	if hl := m.held[owner]; hl != nil {
		hl.locks = slices.DeleteFunc(hl.locks, func(h *refLock) bool { return h == l })
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
func (m *refLockManager) ReleaseAll(owner interface{}) {
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
func (m *refLockManager) grantWaiters(l *refLock) {
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
func (m *refLockManager) Holders(name string) int {
	if l, ok := m.locks[name]; ok {
		return len(l.granted)
	}
	return 0
}

// QueueLen reports the number of waiters on a lock (tests).
func (m *refLockManager) QueueLen(name string) int {
	if l, ok := m.locks[name]; ok {
		return len(l.queue)
	}
	return 0
}
