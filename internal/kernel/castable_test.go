package kernel

import (
	"fmt"
	"sync"
	"testing"
)

// casLiveCount scans a CAS table and returns how many live (non-tombstone)
// boxes carry key k. Test-only: the scan takes no epoch pin because the
// callers are single-threaded or post-join.
func casLiveCount(t *casTable, k mapKey) int {
	n := 0
	for i := range t.slots {
		if b := t.slots[i].Load(); b != nil && b != casTombstone && b.key == k {
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
// FuzzCASTable's central invariant: replacing a key in place must retire
// the old box and leave exactly one live copy, including when the key sits
// in a spill slot behind a tombstone — the insert scan must find the
// existing copy past the tombstone rather than filling the tombstone and
// creating a duplicate.
func TestCASTableStaleDuplicatePurge(t *testing.T) {
	tbl := newCASTableSized(16)
	keys := casCollidingKeys(tbl, 3)
	a, b, c := keys[0], keys[1], keys[2]

	e1, e2 := &pageEntry{}, &pageEntry{}
	tbl.insert(a, e1) // home slot
	tbl.insert(b, e1) // spill slot (home occupied)
	tbl.insert(c, e1) // deeper spill
	if _, _, spills, _ := tbl.stats(); spills != 2 {
		t.Fatalf("colliding inserts: spills = %d, want 2", spills)
	}

	// Replace-in-place: one live copy, new entry wins.
	tbl.insert(b, e2)
	if got, ok := tbl.lookupEntry(b); !ok || got != e2 {
		t.Fatalf("lookup(%v) after replace: got %p ok=%v, want %p", b, got, ok, e2)
	}
	if n := casLiveCount(tbl, b); n != 1 {
		t.Fatalf("key %v live %d times after replace, want 1", b, n)
	}

	// Tombstone the home occupant, then re-insert the spilled key: the scan
	// must pass the tombstone and replace c's existing spill copy in place.
	tbl.remove(a)
	tbl.insert(c, e2)
	if n := casLiveCount(tbl, c); n != 1 {
		t.Fatalf("key %v live %d times after tombstone re-insert, want 1", c, n)
	}
	if got, ok := tbl.lookupEntry(c); !ok || got != e2 {
		t.Fatalf("lookup(%v): got %p ok=%v, want %p", c, got, ok, e2)
	}

	// A fresh key may reuse the tombstoned home slot.
	d := mapKey{seg: a.seg, page: a.page}
	tbl.insert(d, e2)
	if n := casLiveCount(tbl, d); n != 1 {
		t.Fatalf("key %v live %d times after tombstone reuse, want 1", d, n)
	}
}

// TestCASTableRemoveSegment pins the segment-removal contract: every key
// of the removed segment misses afterwards, other segments are untouched.
func TestCASTableRemoveSegment(t *testing.T) {
	tbl := newCASTableSized(64)
	e := &pageEntry{}
	for page := int64(0); page < 16; page++ {
		tbl.insert(mapKey{seg: 1, page: page}, e)
		tbl.insert(mapKey{seg: 2, page: page}, e)
	}
	tbl.removeSegment(1)
	for page := int64(0); page < 16; page++ {
		if _, ok := tbl.lookupEntry(mapKey{seg: 1, page: page}); ok {
			t.Fatalf("seg 1 page %d still visible after removeSegment", page)
		}
		if _, ok := tbl.lookupEntry(mapKey{seg: 2, page: page}); !ok {
			t.Fatalf("seg 2 page %d lost by removeSegment(1)", page)
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
	e := &pageEntry{}
	for _, k := range keys {
		tbl.insert(k, e)
	}
	if _, _, _, drops := tbl.stats(); drops == 0 {
		t.Fatal("no drop recorded after window-overflowing inserts")
	}
	if got, ok := tbl.lookupEntry(keys[len(keys)-1]); !ok || got != e {
		t.Fatal("overflowing key not visible after displacement insert")
	}
	total := 0
	for _, k := range keys {
		total += casLiveCount(tbl, k)
	}
	if total != tbl.window {
		t.Fatalf("live colliding copies = %d, want window %d", total, tbl.window)
	}
}

// TestChaosCASTableHammer hammers one CAS table from 16 goroutines under
// the chaos/-race gate: 12 writers each own a disjoint key range (the
// kernel's per-key single-writer discipline) and mix insert, replace and
// remove; 2 goroutines sweep removeSegment over a segment of their own;
// 2 readers scan every key. A hit must return the owner's last-inserted
// entry — never a stale or foreign pointer.
func TestChaosCASTableHammer(t *testing.T) {
	tbl := newCASTableSized(256)
	const (
		writers   = 12
		keysPerW  = 64
		rounds    = 40
		readerSeg = SegID(7) // segment the sweep goroutines own
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := make(map[mapKey]*pageEntry, keysPerW)
			for r := 0; r < rounds; r++ {
				for i := 0; i < keysPerW; i++ {
					k := mapKey{seg: SegID(w % 4), page: int64(w*keysPerW + i)}
					switch (r + i) % 3 {
					case 0, 1:
						e := &pageEntry{}
						tbl.insert(k, e)
						last[k] = e
						if got, ok := tbl.lookupEntry(k); ok && got != e {
							panic(fmt.Sprintf("stale hit for %v", k))
						}
					case 2:
						tbl.remove(k)
						delete(last, k)
						if _, ok := tbl.lookupEntry(k); ok {
							panic(fmt.Sprintf("hit after remove for %v", k))
						}
					}
				}
			}
			for k, e := range last {
				if got, ok := tbl.lookupEntry(k); ok && got != e {
					panic(fmt.Sprintf("final stale hit for %v", k))
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			e := &pageEntry{}
			for r := 0; r < rounds; r++ {
				for p := int64(0); p < 32; p++ {
					tbl.insert(mapKey{seg: readerSeg + SegID(s), page: p}, e)
				}
				tbl.removeSegment(readerSeg + SegID(s))
			}
		}(s)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*4; r++ {
				for p := int64(0); p < writers*keysPerW; p += 7 {
					tbl.lookupEntry(mapKey{seg: SegID(p % 4), page: p})
				}
			}
		}()
	}
	wg.Wait()
	hits, misses, _, _ := tbl.stats()
	if hits+misses == 0 {
		t.Fatal("hammer recorded no lookups")
	}
}

// TestChaosCASTLBHammer drives the lock-free TLB from 16 goroutines mixing
// install, lookup, invalidate and segment shootdown. The TLB stores packed
// words, so the only invariants are memory-safety under -race and that a
// single-threaded install/invalidate pair behaves deterministically — the
// final serial pass checks the latter.
func TestChaosCASTLBHammer(t *testing.T) {
	tlb := newCASTLB(64)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				k := mapKey{seg: SegID(g % 4), page: int64((g*31 + r) % 128)}
				switch r % 4 {
				case 0:
					tlb.install(k)
				case 1:
					tlb.lookup(k)
				case 2:
					tlb.invalidate(k)
				case 3:
					tlb.invalidateSegment(k.seg)
				}
			}
		}(g)
	}
	wg.Wait()

	k := mapKey{seg: 9, page: 42}
	tlb.install(k)
	if !tlb.lookup(k) {
		t.Fatal("installed entry not visible")
	}
	tlb.invalidate(k)
	if tlb.lookup(k) {
		t.Fatal("entry visible after invalidate")
	}
	tlb.install(k)
	tlb.invalidateSegment(k.seg)
	if tlb.lookup(k) {
		t.Fatal("entry visible after segment shootdown")
	}
}

// TestCASTLBUncacheableKeys: keys outside the packed-word range must miss
// on lookup and make install/invalidate no-ops rather than corrupt state.
func TestCASTLBUncacheableKeys(t *testing.T) {
	tlb := newCASTLB(64)
	huge := mapKey{seg: 1 << 23, page: 5}
	tlb.install(huge)
	if tlb.lookup(huge) {
		t.Fatal("uncacheable key reported as TLB hit")
	}
	neg := mapKey{seg: 1, page: -3}
	tlb.install(neg)
	if tlb.lookup(neg) {
		t.Fatal("negative page reported as TLB hit")
	}
}
