package kernel

import (
	"fmt"
	"sync/atomic"
)

// casTable is the lock-free mapping table the concurrent scheduler installs
// (SetScheduler): open addressing over atomic slot pointers, with CAS
// publication, tombstoned removal, and epoch-based reclamation (epoch.go)
// of unlinked boxes. The serial scheduler keeps the paper's unlocked
// mappingTable, so the golden output is untouched.
//
// Layout. Each slot holds an atomic pointer to an immutable casBox (key +
// entry). A key's home slot is the top bits of its Fibonacci hash; a lookup
// probes a short window from home, stopping at the first nil. Removal
// CASes the box to a shared tombstone sentinel — never back to nil — so
// the stop-at-nil invariant survives concurrent removals: a key, once
// placed, is never beyond the first nil of its window, because inserts
// choose the first nil-or-tombstone slot and nils never reappear.
//
// Concurrency contract. The structure is memory-safe under arbitrary
// concurrent use (readers pin an epoch before dereferencing; writers
// publish whole boxes by CAS and retire what they unlink). Linearizable
// per-key behaviour additionally relies on the kernel's existing locking:
// every table operation for a given key happens under that key's segment
// lock, so each key has one writer at a time, while operations on
// different keys race freely. Like the paper's table this is a cache, not
// the truth: a full probe window displaces the home occupant (drops), and
// misses fall back to the segment's page index.
type casTable struct {
	slots  []atomic.Pointer[casBox]
	mask   uint64
	shift  uint
	window int
	// spanSeen is a monotonic bitmask of superpage orders ever cached as
	// span entries (superpage.go). Zero — always, with superpages off —
	// makes lookup's span probing one relaxed load, so the concurrent
	// golden modes see the exact pre-extent probe sequence.
	spanSeen atomic.Uint32
	ebr      ebr
	stat     [casStatStripes]casStatCell
}

// casBox is one published table entry. key and entry are immutable after
// publication; next is pool/limbo linkage owned by epoch.go and never read
// by table readers.
type casBox struct {
	key   mapKey
	entry *pageEntry
	next  *casBox
}

// casTombstone marks a slot whose box was removed. It is compared by
// identity (its zero key could collide with a real segment-0 key) and is
// never retired or dereferenced.
var casTombstone = new(casBox)

// casProbeWindow bounds the probe distance from a key's home slot, like
// hashOverflow bounds the paper table's overflow scan.
const casProbeWindow = 8

const casStatStripes = 8

// casStatCell stripes the hit/miss counters so concurrent lanes do not
// serialize on one cache line of atomics.
type casStatCell struct {
	hits, misses, spills, drops atomic.Int64
	_                           [32]byte
}

func newCASTable() *casTable { return newCASTableSized(hashTableSlots) }

func newCASTableSized(slots int) *casTable {
	if slots <= 0 || slots&(slots-1) != 0 {
		panic(fmt.Sprintf("kernel: CAS table size %d not a power of two", slots))
	}
	shift := uint(64)
	for s := slots; s > 1; s >>= 1 {
		shift--
	}
	w := casProbeWindow
	if w > slots {
		w = slots
	}
	return &casTable{
		slots:  make([]atomic.Pointer[casBox], slots),
		mask:   uint64(slots - 1),
		shift:  shift,
		window: w,
	}
}

func casHash(k mapKey) uint64 {
	h := uint64(k.seg)<<40 ^ uint64(k.page)
	return h * 0x9e3779b97f4a7c15
}

// probe scans k's window for its box; the caller must hold an epoch pin
// (the returned entry is only safe to use before the matching unpin).
// Stats are the caller's job, so span probes do not double-count.
func (t *casTable) probe(k mapKey) (*pageEntry, bool) {
	h := casHash(k)
	home := h >> t.shift
	for i := 0; i < t.window; i++ {
		b := t.slots[(home+uint64(i))&t.mask].Load()
		if b == nil {
			break
		}
		if b == casTombstone {
			continue
		}
		if b.key == k {
			return b.entry, true
		}
	}
	return nil, false
}

func (t *casTable) lookup(k mapKey) bool {
	_, ok := t.lookupEntry(k)
	return ok
}

// lookupEntry is lookup that also returns the published entry.
func (t *casTable) lookupEntry(k mapKey) (*pageEntry, bool) {
	h := casHash(k)
	g := t.ebr.pin(h)
	if e, ok := t.probe(k); ok {
		t.ebr.unpin(g)
		t.stat[g&(casStatStripes-1)].hits.Add(1)
		return e, true
	}
	// Exact miss: probe the span key of every live extent order, so one
	// cached span entry answers for all 2^order pages it covers.
	if m := t.spanSeen.Load(); m != 0 {
		for o := 1; o <= MaxExtentOrder; o++ {
			if m&(1<<uint(o)) == 0 {
				continue
			}
			sk := spanMapKey(mapKey{k.seg, extentBase(k.page, o)}, o)
			if e, ok := t.probe(sk); ok {
				t.ebr.unpin(g)
				t.stat[g&(casStatStripes-1)].hits.Add(1)
				return e, true
			}
		}
	}
	t.ebr.unpin(g)
	t.stat[g&(casStatStripes-1)].misses.Add(1)
	return nil, false
}

// insertSpan caches one entry covering a whole extent under its tagged
// span key (see superpage.go: span hits only report presence; flags and
// frames always come from the page store). Publication order matters for
// readers of other segments: the order bit must be visible before the
// span entry can be found, so it is set first.
func (t *casTable) insertSpan(k mapKey, e *pageEntry, order uint8) {
	for {
		m := t.spanSeen.Load()
		if m&(1<<uint(order)) != 0 || t.spanSeen.CompareAndSwap(m, m|1<<uint(order)) {
			break
		}
	}
	t.insert(spanMapKey(k, int(order)), e)
}

// removeSpan withdraws a span entry (extent demoted).
func (t *casTable) removeSpan(k mapKey, order uint8) {
	t.remove(spanMapKey(k, int(order)))
}

func (t *casTable) insert(k mapKey, e *pageEntry) {
	h := casHash(k)
	g := t.ebr.pin(h)
	home := h >> t.shift
	var nb *casBox
	for {
		// One scan finds either the key's existing box (replace in place)
		// or the first free slot (nil or tombstone) in the window.
		freeIdx, freeOff := uint64(0), -1
		var freeSaw *casBox
		replaced := false
		for i := 0; i < t.window; i++ {
			idx := (home + uint64(i)) & t.mask
			b := t.slots[idx].Load()
			if b == nil {
				if freeOff < 0 {
					freeIdx, freeOff, freeSaw = idx, i, nil
				}
				break
			}
			if b == casTombstone {
				if freeOff < 0 {
					freeIdx, freeOff, freeSaw = idx, i, b
				}
				continue
			}
			if b.key == k {
				nb = t.box(nb, h, k, e)
				if !t.slots[idx].CompareAndSwap(b, nb) {
					replaced = true // raced with a displacement; rescan
					break
				}
				t.ebr.retire(b, h)
				t.ebr.unpin(g)
				return
			}
		}
		if replaced {
			continue
		}
		if freeOff >= 0 {
			nb = t.box(nb, h, k, e)
			if !t.slots[freeIdx].CompareAndSwap(freeSaw, nb) {
				continue // another key claimed the slot; rescan
			}
			if freeOff > 0 {
				t.stat[g&(casStatStripes-1)].spills.Add(1)
			}
			t.ebr.unpin(g)
			return
		}
		// Window full of live entries for other keys: displace the home
		// occupant, as the paper table drops on overflow exhaustion. The
		// table is a cache — the victim's mapping survives in its segment.
		victim := t.slots[home].Load()
		if victim == nil || victim == casTombstone {
			continue // freed underneath us; the rescan will use it
		}
		nb = t.box(nb, h, k, e)
		if t.slots[home].CompareAndSwap(victim, nb) {
			t.ebr.retire(victim, h)
			t.stat[g&(casStatStripes-1)].drops.Add(1)
			t.ebr.unpin(g)
			return
		}
	}
}

// box lazily allocates (or reuses across retry loops) the box to publish.
func (t *casTable) box(nb *casBox, h uint64, k mapKey, e *pageEntry) *casBox {
	if nb == nil {
		nb = t.ebr.alloc(h)
		nb.key = k
	}
	nb.entry = e
	return nb
}

func (t *casTable) remove(k mapKey) {
	h := casHash(k)
	g := t.ebr.pin(h)
	home := h >> t.shift
	for {
		raced := false
		for i := 0; i < t.window; i++ {
			idx := (home + uint64(i)) & t.mask
			b := t.slots[idx].Load()
			if b == nil {
				break
			}
			if b == casTombstone || b.key != k {
				continue
			}
			if !t.slots[idx].CompareAndSwap(b, casTombstone) {
				raced = true // displaced by another key's insert; rescan
				break
			}
			t.ebr.retire(b, h)
			break
		}
		if !raced {
			break
		}
	}
	t.ebr.unpin(g)
}

func (t *casTable) removeSegment(seg SegID) {
	g := t.ebr.pin(uint64(seg))
	for i := range t.slots {
		for {
			b := t.slots[i].Load()
			if b == nil || b == casTombstone || b.key.seg != seg {
				break
			}
			if t.slots[i].CompareAndSwap(b, casTombstone) {
				t.ebr.retire(b, uint64(seg))
				break
			}
		}
	}
	t.ebr.unpin(g)
}

func (t *casTable) stats() (hits, misses, spills, drops int64) {
	for i := range t.stat {
		hits += t.stat[i].hits.Load()
		misses += t.stat[i].misses.Load()
		spills += t.stat[i].spills.Load()
		drops += t.stat[i].drops.Load()
	}
	return
}

func (t *casTable) resetStats() {
	for i := range t.stat {
		t.stat[i].hits.Store(0)
		t.stat[i].misses.Store(0)
		t.stat[i].spills.Store(0)
		t.stat[i].drops.Store(0)
	}
}
