package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// newCASTable is a table of the paper table's size, for the benchmarks that
// compare the two.
func newCASTable() *casTable { return newCASTableSized(hashTableSlots) }

// casSlotKey decodes one slot word into the mapKey the table files it
// under (span-tagged for order > 0), reporting false for an empty or
// tombstoned slot.
func casSlotKey(w uint64) (mapKey, bool) {
	if w&casPresent == 0 {
		return mapKey{}, false
	}
	k := mapKey{seg: casOrderSeg(w), page: int64(w & (1<<casPageBits - 1))}
	return spanMapKey(k, int(w>>casOrderShift&7)), true
}

// casLiveCount scans a CAS table and returns how many live slots hold key
// k. Test-only: callers are single-threaded or post-join.
func casLiveCount(t *casTable, k mapKey) int {
	n := 0
	for i := range t.slots {
		if sk, live := casSlotKey(t.slots[i].Load()); live && sk == k {
			n++
		}
	}
	return n
}

// casCollidingKeys returns n distinct keys sharing one home slot of tbl.
func casCollidingKeys(tbl *casTable, n int) []mapKey {
	byHome := make(map[uint64][]mapKey)
	for page := int64(0); ; page++ {
		k := mapKey{seg: 1, page: page}
		home := casHash(k) >> tbl.shift
		byHome[home] = append(byHome[home], k)
		if len(byHome[home]) == n {
			return byHome[home]
		}
	}
}

// TestCASTableStaleDuplicatePurge is the deterministic arm of
// FuzzCASTable's central invariant: re-inserting a cached key must leave
// exactly one live copy, including when the key sits in a spill slot behind
// a tombstone — the insert scan must find the existing copy past the
// tombstone rather than filling the tombstone and creating a duplicate
// (which a later remove would leave half-removed).
func TestCASTableStaleDuplicatePurge(t *testing.T) {
	tbl := newCASTableSized(16)
	keys := casCollidingKeys(tbl, 3)
	a, b, c := keys[0], keys[1], keys[2]

	tbl.insert(a) // home slot
	tbl.insert(b) // spill slot (home occupied)
	tbl.insert(c) // deeper spill
	if _, _, spills, _ := tbl.stats(); spills != 2 {
		t.Fatalf("colliding inserts: spills = %d, want 2", spills)
	}

	// Re-insert in place: one live copy, no new spill.
	tbl.insert(b)
	if !tbl.lookup(b) {
		t.Fatalf("lookup(%v) missed after re-insert", b)
	}
	if n := casLiveCount(tbl, b); n != 1 {
		t.Fatalf("key %v live %d times after re-insert, want 1", b, n)
	}
	if _, _, spills, _ := tbl.stats(); spills != 2 {
		t.Fatalf("re-insert counted a spill: spills = %d, want 2", spills)
	}

	// Tombstone the home occupant, then re-insert the spilled key: the scan
	// must pass the tombstone and find c's existing spill copy.
	tbl.remove(a)
	tbl.insert(c)
	if n := casLiveCount(tbl, c); n != 1 {
		t.Fatalf("key %v live %d times after tombstone re-insert, want 1", c, n)
	}
	if !tbl.lookup(c) {
		t.Fatalf("lookup(%v) missed behind a tombstone", c)
	}
	tbl.remove(c)
	if tbl.lookup(c) {
		t.Fatalf("lookup(%v) hit after remove: a duplicate survived", c)
	}

	// The removed key may reuse its tombstoned home slot.
	tbl.insert(a)
	if n := casLiveCount(tbl, a); n != 1 {
		t.Fatalf("key %v live %d times after tombstone reuse, want 1", a, n)
	}
	if got := tbl.slots[casHash(a)>>tbl.shift].Load(); got&casPresent == 0 {
		t.Fatalf("home slot of %v not reused: holds %#x", a, got)
	}
}

// TestCASTableRemoveSegment pins the segment-removal contract: every key
// of the removed segment misses afterwards — span entries included — and
// other segments are untouched. Segment 0 is the one a tombstone's zero
// segment bits could be mistaken for.
func TestCASTableRemoveSegment(t *testing.T) {
	for _, victim := range []SegID{1, 0} {
		tbl := newCASTableSized(64)
		for page := int64(0); page < 16; page++ {
			tbl.insert(mapKey{seg: victim, page: page})
			tbl.insert(mapKey{seg: 2, page: page})
		}
		tbl.remove(mapKey{seg: 2, page: 3}) // a tombstone in the sweep's way
		tbl.insertSpan(mapKey{seg: victim, page: 32}, 2)
		tbl.removeSegment(victim)
		for page := int64(0); page < 16; page++ {
			if tbl.lookup(mapKey{seg: victim, page: page}) {
				t.Fatalf("seg %d page %d still visible after removeSegment", victim, page)
			}
			if got := tbl.lookup(mapKey{seg: 2, page: page}); got != (page != 3) {
				t.Fatalf("seg 2 page %d: lookup = %v after removeSegment(%d)", page, got, victim)
			}
		}
		if tbl.lookup(mapKey{seg: victim, page: 33}) {
			t.Fatalf("seg %d span still answers after removeSegment", victim)
		}
	}
}

// TestCASTableDisplacement drives more colliding keys than the probe window
// holds: the overflowing insert must displace the home occupant (a drop —
// the table is a cache) rather than fail or duplicate.
func TestCASTableDisplacement(t *testing.T) {
	tbl := newCASTableSized(16)
	if tbl.window >= 16 {
		t.Fatalf("window %d leaves no room for displacement in 16 slots", tbl.window)
	}
	keys := casCollidingKeys(tbl, tbl.window+1)
	for _, k := range keys {
		tbl.insert(k)
	}
	if _, _, spills, drops := tbl.stats(); drops != 1 || spills != int64(tbl.window-1) {
		t.Fatalf("window-overflowing inserts: spills %d drops %d, want %d and 1", spills, drops, tbl.window-1)
	}
	if !tbl.lookup(keys[len(keys)-1]) {
		t.Fatal("overflowing key not visible after displacement insert")
	}
	if tbl.lookup(keys[0]) {
		t.Fatal("displaced home occupant still visible")
	}
	total := 0
	for _, k := range keys {
		total += casLiveCount(tbl, k)
	}
	if total != tbl.window {
		t.Fatalf("live colliding copies = %d, want window %d", total, tbl.window)
	}
}

// TestCASTableUncacheableKeys: keys outside the packed-word range make
// insert and remove no-ops and cost a lookup one counted miss.
func TestCASTableUncacheableKeys(t *testing.T) {
	tbl := newCASTableSized(64)
	for _, k := range []mapKey{
		{seg: 1 << casSegBits, page: 5},
		{seg: 1, page: 1 << casPageBits},
		{seg: 1, page: -3},
	} {
		tbl.insert(k)
		tbl.insertSpan(k, 2)
		_, before, _, _ := tbl.stats()
		if tbl.lookup(k) {
			t.Fatalf("uncacheable key %v reported present", k)
		}
		if _, misses, _, _ := tbl.stats(); misses != before+1 {
			t.Fatalf("lookup(%v) counted %d misses, want 1", k, misses-before)
		}
		tbl.remove(k)
		tbl.removeSpan(k, 2)
	}
	for i := range tbl.slots {
		if w := tbl.slots[i].Load(); w != 0 {
			t.Fatalf("slot %d holds %#x after uncacheable-key operations", i, w)
		}
	}
	if m := tbl.spanSeen.Load(); m != 0 {
		t.Fatalf("uncacheable span insert set spanSeen = %#x", m)
	}
	// The largest packable key still caches.
	edge := mapKey{seg: 1<<casSegBits - 1, page: 1<<casPageBits - 1}
	tbl.insert(edge)
	if !tbl.lookup(edge) {
		t.Fatalf("edge key %v not cached", edge)
	}
}

// TestChaosCASTableHammer hammers one CAS table from 16 goroutines under
// the chaos/-race gate: 12 writers each own a disjoint key range (the
// kernel's per-key single-writer discipline) and mix insert, re-insert and
// remove; 2 goroutines sweep removeSegment over a segment of their own;
// 2 readers scan every key. A key its writer has removed must never be
// reported present, and a key it holds may go missing only by displacement,
// which the table counts.
func TestChaosCASTableHammer(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(max(2, procs))
	defer runtime.GOMAXPROCS(procs)
	tbl := newCASTableSized(256)
	const (
		writers   = 12
		keysPerW  = 64
		rounds    = 40
		readerSeg = SegID(7) // segment the sweep goroutines own
	)
	var lost atomic.Int64 // held keys found missing
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			held := make(map[mapKey]bool, keysPerW)
			for r := 0; r < rounds; r++ {
				for i := 0; i < keysPerW; i++ {
					k := mapKey{seg: SegID(w % 4), page: int64(w*keysPerW + i)}
					switch (r + i) % 3 {
					case 0, 1:
						tbl.insert(k)
						held[k] = true
					case 2:
						tbl.remove(k)
						delete(held, k)
						if tbl.lookup(k) {
							t.Errorf("hit after remove for %v", k)
						}
					}
				}
			}
			for k := range held {
				if !tbl.lookup(k) {
					lost.Add(1)
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for p := int64(0); p < 32; p++ {
					tbl.insert(mapKey{seg: readerSeg + SegID(s), page: p})
				}
				tbl.removeSegment(readerSeg + SegID(s))
				for p := int64(0); p < 32; p++ {
					if tbl.lookup(mapKey{seg: readerSeg + SegID(s), page: p}) {
						t.Errorf("seg %d page %d visible after removeSegment", readerSeg+SegID(s), p)
					}
				}
			}
		}(s)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*4; r++ {
				for p := int64(0); p < writers*keysPerW; p += 7 {
					tbl.lookup(mapKey{seg: SegID(p % 4), page: p})
				}
			}
		}()
	}
	wg.Wait()
	hits, misses, _, drops := tbl.stats()
	if hits+misses == 0 {
		t.Fatal("hammer recorded no lookups")
	}
	if lost.Load() > drops {
		t.Fatalf("%d held keys missing but only %d displacements counted", lost.Load(), drops)
	}
	seen := make(map[mapKey]bool)
	for i := range tbl.slots {
		if k, live := casSlotKey(tbl.slots[i].Load()); live {
			if seen[k] {
				t.Fatalf("key %v live in two slots", k)
			}
			seen[k] = true
		}
	}
}
