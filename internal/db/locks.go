// Package db implements the paper's §3.3 evaluation application: a
// simulated parallel database transaction-processing system in the style of
// the paper's own program — "the locks were implemented and the parallelism
// is real. However, the execution of a transaction is simulated by looping
// for some number of instructions and a page fault is simulated by a
// delay". Here the hierarchical locks are fully implemented, execution and
// faults are virtual-time delays, and the parallelism is that of the
// transactions in flight on the sim package's deterministic event queue:
// each transaction is a record whose program resumes at every event that
// ends one of its waits (db.go).
package db

import "fmt"

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

// waiter is what a queued request wakes once the releaser has granted it.
type waiter interface{ wake() }

// lockWait is one queued request.
type lockWait struct {
	owner *holdList
	mode  Mode
	w     waiter
}

// lock is one lockable resource. It counts its granted holds per mode; whose
// they are is recorded once, in the owners' records, so a grant decision is
// four compares however many open transactions hold IX on "db".
type lock struct {
	held  [4]int32 // granted holds per Mode
	queue []lockWait
}

// blocked reports whether holds numbering held per mode rule out mode.
func blocked(held *[4]int32, mode Mode) bool {
	ok := &compatible[mode]
	return held[IS] > 0 && !ok[IS] || held[IX] > 0 && !ok[IX] || held[S] > 0 && !ok[S] || held[X] > 0 && !ok[X]
}

// holdList is one owner's record: its holds in acquisition order, a hold
// being one grant of l in mode. It is the only record of who holds what, and
// what every lock operation's body takes for the owner.
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
//
// Each operation has one body, on a lock the caller owns and the owner's
// record: db.System keeps its locks as slots of its own and enters there,
// with a record from newOwner. Every grant (immediate or to a woken waiter)
// appends the lock and mode to the owner's record, so releaseAll visits only
// what the owner holds; a lock acquired twice is listed twice. The manager
// has no index of locks or owners: the keyed spellings the lock tests drive
// (keyedLocks in locks_test.go) keep their own, by name and owner key.
type LockManager struct {
	// heldFree recycles released records so a steady stream of short
	// transactions allocates none; records counts the ones ever made.
	heldFree []*holdList
	records  int
	// Barging enables reader-preference granting.
	Barging bool
	stats   LockStats
}

// Stats returns a snapshot of activity counters.
func (m *LockManager) Stats() LockStats { return m.stats }

// newOwner hands out an empty record; releaseAll takes it back.
func (m *LockManager) newOwner() *holdList {
	if n := len(m.heldFree); n > 0 {
		hl := m.heldFree[n-1]
		m.heldFree = m.heldFree[:n-1]
		return hl
	}
	m.records++
	return new(holdList)
}

// grantable reports whether no hold on l by anyone but owner conflicts with
// mode (re-entrant same-owner holds are always allowed in this model, since
// transactions acquire in a fixed hierarchy order): when the counts show a
// conflict, the owner's own holds on l are discounted from them first.
func grantable(l *lock, owner *holdList, mode Mode) bool {
	if !blocked(&l.held, mode) {
		return true
	}
	others := l.held
	for _, h := range owner.holds {
		if h.l == l {
			others[h.mode]--
		}
	}
	return !blocked(&others, mode)
}

// grant records a hold: counted on the lock, listed in its owner's record.
func grant(l *lock, owner *holdList, mode Mode) {
	l.held[mode]++
	owner.holds = append(owner.holds, hold{l, mode})
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

// acquire requests l in mode for owner. It grants the request at once and
// reports true, or queues it and reports false: the releaser that later
// grants it wakes w. Owners must acquire locks in a consistent hierarchy
// order (database, relation, page, index) — the model relies on ordering,
// not detection, for deadlock freedom — and nobody releases for an owner
// while its request is queued.
func (m *LockManager) acquire(owner *holdList, l *lock, mode Mode, w waiter) bool {
	m.stats.Acquires++
	if (m.Barging || len(l.queue) == 0) && grantable(l, owner, mode) {
		grant(l, owner, mode)
		return true
	}
	m.stats.Waits++
	l.queue = append(l.queue, lockWait{owner: owner, mode: mode, w: w})
	return false
}

// releaseAll drops every hold owner has anywhere (the two-phase commit
// point) and takes the record back. It goes lock by lock in the order the owner first acquired them — a lock's holds
// all go, then its waiters are granted — so the order in which waiters of
// different locks wake is a function of the run, not of map iteration.
func (m *LockManager) releaseAll(owner *holdList) {
	for i, h := range owner.holds {
		if l := h.l; l != nil { // nil: released with the lock's first listing
			m.drop(l, owner.holds[i:])
			m.grantWaiters(l)
		}
	}
	owner.holds = owner.holds[:0]
	m.heldFree = append(m.heldFree, owner)
}

// grantWaiters grants queued requests: in FIFO order until the head is
// incompatible, or — with Barging — every compatible waiter regardless of
// position. A slot a granted waiter leaves is cleared, or the queue's array
// would keep the woken waiter reachable.
func (m *LockManager) grantWaiters(l *lock) {
	if !m.Barging {
		for len(l.queue) > 0 {
			w := l.queue[0]
			if !grantable(l, w.owner, w.mode) {
				return
			}
			l.queue[0] = lockWait{}
			l.queue = l.queue[1:]
			grant(l, w.owner, w.mode)
			w.w.wake()
		}
		return
	}
	kept := l.queue[:0]
	for _, w := range l.queue {
		if grantable(l, w.owner, w.mode) {
			grant(l, w.owner, w.mode)
			w.w.wake()
		} else {
			kept = append(kept, w)
		}
	}
	clear(l.queue[len(kept):])
	l.queue = kept
}
