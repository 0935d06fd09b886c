package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

func TestMappingTableInsertLookupRemove(t *testing.T) {
	mt := newMappingTable()
	k1 := mapKey{seg: 3, page: 7}
	k2 := mapKey{seg: 4, page: 7}
	mt.insert(k1)
	mt.insert(k2)
	if !mt.lookup(k1) {
		t.Fatal("lookup k1 failed")
	}
	if !mt.lookup(k2) {
		t.Fatal("lookup k2 failed")
	}
	mt.remove(k1)
	if mt.lookup(k1) {
		t.Fatal("k1 still present after remove")
	}
	if !mt.lookup(k2) {
		t.Fatal("k2 lost by removing k1")
	}
}

func TestMappingTableReinsertSameKey(t *testing.T) {
	mt := newMappingTable()
	k := mapKey{seg: 1, page: 1}
	mt.insert(k)
	mt.insert(k)
	if !mt.lookup(k) {
		t.Fatal("reinsert lost the key")
	}
	if mt.spills != 0 {
		t.Fatal("reinsert of same key should not spill")
	}
	mt.remove(k)
	if mt.lookup(k) {
		t.Fatal("one remove did not undo two inserts of the same key")
	}
}

// collidingKeys finds n distinct keys that hash to the same direct-mapped
// slot, to exercise the overflow area.
func collidingKeys(mt *mappingTable, n int) []mapKey {
	want := mt.index(mapKey{seg: 1, page: 0})
	keys := []mapKey{{seg: 1, page: 0}}
	for p := int64(1); len(keys) < n; p++ {
		k := mapKey{seg: 1, page: p}
		if mt.index(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestMappingTableOverflowSpill(t *testing.T) {
	mt := newMappingTable()
	keys := collidingKeys(mt, 3)
	for _, k := range keys {
		mt.insert(k)
	}
	// All three must still be found: one in the slot, two in overflow.
	for i, k := range keys {
		if !mt.lookup(k) {
			t.Fatalf("colliding key %d lost after spill", i)
		}
	}
	if mt.spills != 2 {
		t.Fatalf("spills = %d, want 2", mt.spills)
	}
}

func TestMappingTableOverflowFullDrops(t *testing.T) {
	mt := newMappingTable()
	keys := collidingKeys(mt, hashOverflow+2)
	for _, k := range keys {
		mt.insert(k)
	}
	if mt.drops == 0 {
		t.Fatal("expected drops after overflowing the 32-entry area")
	}
	// The most recent insert always lands in the direct slot.
	if !mt.lookup(keys[len(keys)-1]) {
		t.Fatal("most recent insert missing")
	}
	// A drop is not an error: the authoritative segment map still has the
	// page; the kernel just pays a slow walk. Here we only require that
	// lookups of dropped keys report a miss rather than wrong data.
	found := 0
	for _, k := range keys {
		if mt.lookup(k) {
			found++
		}
	}
	if found != hashOverflow+1 { // 32 overflow entries + 1 direct slot
		t.Fatalf("found %d of %d colliding keys, want %d", found, len(keys), hashOverflow+1)
	}
}

func TestMappingTableRemoveSegment(t *testing.T) {
	mt := newMappingTable()
	for p := int64(0); p < 100; p++ {
		mt.insert(mapKey{seg: 5, page: p})
		mt.insert(mapKey{seg: 6, page: p})
	}
	mt.removeSegment(5)
	for p := int64(0); p < 100; p++ {
		if mt.lookup(mapKey{seg: 5, page: p}) {
			t.Fatalf("segment 5 page %d survived removeSegment", p)
		}
	}
	kept := 0
	for p := int64(0); p < 100; p++ {
		if mt.lookup(mapKey{seg: 6, page: p}) {
			kept++
		}
	}
	if kept < 95 { // a few may have been displaced/dropped by collisions
		t.Fatalf("segment 6 lost too many mappings: kept %d", kept)
	}
}

// Property: against a reference set, a lookup never hits a key that is not
// mapped — it either reports a live key or (after displacement) a miss.
func TestMappingTableNeverWrong(t *testing.T) {
	mt := newMappingTable()
	ref := make(map[mapKey]bool)
	f := func(segs []uint8, pages []uint8) bool {
		n := len(segs)
		if len(pages) < n {
			n = len(pages)
		}
		for i := 0; i < n; i++ {
			k := mapKey{seg: SegID(segs[i]%8) + 1, page: int64(pages[i] >> 1)}
			if pages[i]&1 == 0 {
				ref[k] = true
				mt.insert(k)
			} else {
				delete(ref, k)
				mt.remove(k)
			}
		}
		for seg := SegID(1); seg <= 8; seg++ {
			for page := int64(0); page < 128; page++ {
				if k := (mapKey{seg, page}); mt.lookup(k) && !ref[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTLBBasics(t *testing.T) {
	tl := newTLB(4)
	k1 := mapKey{seg: 1, page: 10}
	if tl.lookup(k1) {
		t.Fatal("empty TLB hit")
	}
	tl.install(k1)
	if !tl.lookup(k1) {
		t.Fatal("installed entry missed")
	}
	tl.install(k1) // duplicate install must not consume a slot
	for p := int64(0); p < 3; p++ {
		tl.install(mapKey{seg: 2, page: p})
	}
	if !tl.lookup(k1) {
		t.Fatal("k1 evicted though TLB had room")
	}
	tl.install(mapKey{seg: 3, page: 0}) // now capacity exceeded: round-robin evicts
	hits := 0
	for _, k := range []mapKey{k1, {seg: 2, page: 0}, {seg: 2, page: 1}, {seg: 2, page: 2}, {seg: 3, page: 0}} {
		if tl.lookup(k) {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("hits = %d, want 4 (one eviction)", hits)
	}
}

func TestTLBInvalidate(t *testing.T) {
	tl := newTLB(8)
	k := mapKey{seg: 1, page: 1}
	tl.install(k)
	tl.invalidate(k)
	if tl.lookup(k) {
		t.Fatal("invalidated entry still hit")
	}
	tl.install(mapKey{seg: 1, page: 2})
	tl.install(mapKey{seg: 2, page: 2})
	tl.invalidateSegment(1)
	if tl.lookup(mapKey{seg: 1, page: 2}) {
		t.Fatal("segment flush missed an entry")
	}
	if !tl.lookup(mapKey{seg: 2, page: 2}) {
		t.Fatal("segment flush removed another segment's entry")
	}
}

// Overload stress: with more live pages than hash slots, mappings are
// displaced and dropped — and correctness must not depend on the hash
// table, because the segment maps are authoritative. Every page stays
// accessible without new faults.
func TestMappingTableOverloadStaysCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("70k-page stress")
	}
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: int64(70000) * 4096, StoreData: false})
	var clock sim.Clock
	k := New(mem, &clock, sim.DECstation5000(), Config{})
	seg, _ := k.CreateSegment("huge", 1)
	m := &popManager{k: k, next: 0}
	free, _ := k.CreateSegment("fast-free", 1)
	if err := k.MigratePages(SystemCred, k.BootSegment(), free, 0, 0, 69000, 0, 0); err != nil {
		t.Fatal(err)
	}
	m.free = free
	k.SetSegmentManager(seg, m)
	const pages = 68000 // more than the 64K hash slots
	for p := int64(0); p < pages; p++ {
		if err := k.Access(seg, p, Write); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
	}
	st := k.Stats()
	if st.MissingFaults != pages {
		t.Fatalf("faults = %d, want %d", st.MissingFaults, pages)
	}
	// By pigeonhole the table displaced mappings; drops are expected.
	spills, _ := k.table.stats()
	if spills == 0 {
		t.Fatal("no hash displacement despite overload")
	}
	// Re-access everything: no page may fault again — dropped hash entries
	// only cost a slow walk, never a fault.
	for p := int64(0); p < pages; p++ {
		if err := k.Access(seg, p, Read); err != nil {
			t.Fatalf("re-access page %d: %v", p, err)
		}
	}
	if k.Stats().MissingFaults != pages {
		t.Fatalf("re-access faulted: %d faults", k.Stats().MissingFaults)
	}
}

// popManager serves faults by popping sequential slots from its free
// segment — O(1) per fault, for stress tests.
type popManager struct {
	k    *Kernel
	free *Segment
	next int64
}

func (m *popManager) ManagerName() string     { return "pop" }
func (m *popManager) Delivery() DeliveryMode  { return DeliverSameProcess }
func (m *popManager) SegmentDeleted(*Segment) {}
func (m *popManager) HandleFault(f Fault) error {
	src := m.next
	m.next++
	return m.k.MigratePages(AppCred, m.free, f.Seg, src, f.Page, 1, FlagRW, 0)
}

// overflowCopies counts valid overflow entries for key.
func overflowCopies(tbl *mappingTable, k mapKey) int {
	n := 0
	for i := range tbl.overflow[:tbl.ovLen] {
		if tbl.overflow[i].holds(k) {
			n++
		}
	}
	return n
}

// TestMappingTableStaleDuplicatePurge is the deterministic regression test
// for the displacement sweep: when a key re-enters its direct-mapped slot
// while an earlier copy of it sits in the overflow area, the sweep must
// invalidate that copy — otherwise a later displacement of the slot would
// put the key in the area twice, and one remove-then-spill sequence could
// leave a removed key answering. The scenario is built on a minimal table
// where collisions are guaranteed.
func TestMappingTableStaleDuplicatePurge(t *testing.T) {
	tbl := newMappingTableSized(2, 2)
	keys := collidingKeys(tbl, 2)
	a, b := keys[0], keys[1]

	tbl.insert(a) // a in slot
	tbl.insert(b) // a displaced to overflow
	if got := overflowCopies(tbl, a); got != 1 {
		t.Fatalf("overflow copies of a = %d, want 1", got)
	}

	// Re-insert a: b is displaced, and the sweep must purge the overflow
	// copy of a in the same pass.
	tbl.insert(a)
	if got := overflowCopies(tbl, a); got != 0 {
		t.Fatalf("overflow copy of a survived re-insert (%d copies)", got)
	}
	if !tbl.lookup(a) {
		t.Fatal("lookup(a) missed after re-insert")
	}

	// Displace a again: it must sit in the area exactly once.
	tbl.insert(b)
	if !tbl.lookup(a) {
		t.Fatal("after displacement lookup(a) missed, want a hit from overflow")
	}
	if got := overflowCopies(tbl, a); got != 1 {
		t.Fatalf("overflow copies of a = %d, want exactly 1", got)
	}

	// And the displaced occupant must never appear twice either.
	if got := overflowCopies(tbl, b); got > 1 {
		t.Fatalf("overflow copies of b = %d", got)
	}

	// One remove forgets a from both areas.
	tbl.remove(a)
	if tbl.lookup(a) || overflowCopies(tbl, a) != 0 {
		t.Fatal("remove(a) left a copy behind")
	}
}

// TestChaosMappingTableHammer hammers one small shared paper table (512
// slots over the 256 stripes, an 8-entry overflow area) from 16 goroutines
// under the chaos/-race gate: 12 writers each own a disjoint key range (the
// kernel's per-key single-writer discipline) and mix insert, re-insert and
// remove; 2 goroutines sweep removeSegment over a segment of their own; 2
// readers scan every key. The writers' 768 keys overload the slots, so
// spills, drops and removeSegment race. A key its writer has removed must
// never be reported present, and a key it holds may go missing only by a
// drop, which the table counts.
func TestChaosMappingTableHammer(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(max(2, procs))
	defer runtime.GOMAXPROCS(procs)
	tbl := newMappingTableSized(512, 8)
	tbl.share()
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
	spills, drops := tbl.stats()
	if spills == 0 || drops == 0 {
		t.Fatalf("%d spills, %d drops: the overflow area never filled", spills, drops)
	}
	if lost.Load() > drops {
		t.Fatalf("%d held keys missing but only %d drops counted", lost.Load(), drops)
	}
	assertNoDuplicates(t, tbl)
}
