package kernel

import (
	"testing"
)

// FuzzMappingTable drives a shrunken mapping table (16 direct-mapped slots,
// 4 overflow entries — small enough that collisions, spills and drops happen
// within a handful of operations) through a fuzz-chosen op sequence, in lock
// step with the reference table (reference_test.go: the same algorithm
// carrying an entry pointer per slot) and a model map. The table is a lossy
// cache, so a miss on a present key is legal; what must never happen is:
//
//   - a slot, an overflow entry, a lookup's answer or a counter differing
//     from the reference (same presence, same spills, same drops),
//   - a hit on a key the model does not hold (after remove, removeSegment
//     or removeSpan),
//   - the same key valid twice within the overflow area (an overflow-
//     internal duplicate makes lookup order-dependent; a slot-shadowed
//     overflow copy is legal because the slot always wins).
func FuzzMappingTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 1, 1, 2, 2, 1, 0})
	f.Add([]byte("insert-remove-collide-spill-drop"))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 3, 0, 0})
	// One colliding bucket: fill the slot, fill the 4-entry overflow area,
	// force drops, re-insert a displaced key over its own overflow copy,
	// then remove through both areas; fill it again, drop its segment and
	// fill it once more.
	f.Add(mappingTableCollidingSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		table := newMappingTableSized(16, 4)
		ref := newRefMappingTable(16, 4)
		model := make(map[mapKey]bool)
		for len(data) >= 3 {
			op, segByte, pageByte := data[0]%6, data[1]&3, data[2]&31
			data = data[3:]
			k := mapKey{seg: SegID(segByte), page: int64(pageByte)}
			order := uint8(pageByte>>3) + 1 // 1..4
			span := mapKey{k.seg, extentBase(k.page, int(order))}
			switch op {
			case 0, 1: // insert weighted 2x: build occupancy
				e := &pageEntry{}
				table.insert(k)
				ref.insert(k, e)
				model[k] = true
				if !table.lookup(k) {
					t.Fatalf("lookup(%v) missed right after insert", k)
				}
				ref.lookup(k)
			case 2:
				table.remove(k)
				ref.remove(k)
				delete(model, k)
			case 3:
				table.removeSegment(k.seg)
				ref.removeSegment(k.seg)
				for mk := range model {
					if mk.seg == k.seg {
						delete(model, mk)
					}
				}
			case 4:
				e := &pageEntry{}
				table.insertSpan(span, order)
				ref.insertSpan(span, e, order)
				model[spanMapKey(span, int(order))] = true
			case 5:
				table.removeSpan(span, order)
				ref.removeSpan(span, order)
				delete(model, spanMapKey(span, int(order)))
			}
			// lookup (exact, then span probes) must agree with the
			// reference on every key of the universe, and may hit only
			// what the model holds.
			for seg := SegID(0); seg < 4; seg++ {
				for page := int64(0); page < 32; page++ {
					pk := mapKey{seg, page}
					_, want := ref.lookup(pk)
					got := table.lookup(pk)
					if got != want {
						t.Fatalf("lookup(%v) = %v, reference %v", pk, got, want)
					}
					if got && !modelCovers(model, pk) {
						t.Fatalf("lookup(%v) hit a mapping the model does not hold", pk)
					}
				}
			}
			assertSameAsReference(t, table, ref)
			assertNoDuplicates(t, table)
		}
	})
}

// mappingTableCollidingSeed builds a corpus entry out of keys that share one
// direct-mapped slot of the 16-slot fuzz table.
func mappingTableCollidingSeed() []byte {
	probe := newMappingTableSized(16, 4)
	var pages []byte
	for p := int64(0); p < 32 && len(pages) < 7; p++ {
		if probe.index(mapKey{seg: 1, page: p}) == probe.index(mapKey{seg: 1, page: 0}) {
			pages = append(pages, byte(p))
		}
	}
	var fill []byte
	for _, p := range pages { // slot, then overflow to full, then drops
		fill = append(fill, 0, 1, p)
	}
	seed := append([]byte(nil), fill...)
	seed = append(seed, 0, 1, pages[0]) // back over its own overflow copy
	seed = append(seed, 0, 1, pages[0]) // same-key overwrite
	for _, p := range pages {
		seed = append(seed, 2, 1, p)
	}
	seed = append(seed, fill...)
	seed = append(seed, 3, 1, 0) // removeSegment empties slot and overflow
	return append(seed, fill...)
}

// modelCovers reports whether the model holds k exactly or through a span
// of any order.
func modelCovers(model map[mapKey]bool, k mapKey) bool {
	if model[k] {
		return true
	}
	for o := 1; o <= MaxExtentOrder; o++ {
		if model[spanMapKey(mapKey{k.seg, extentBase(k.page, o)}, o)] {
			return true
		}
	}
	return false
}

// assertSameAsReference compares the key-only table with the reference slot
// for slot, overflow entry for overflow entry, and spill and drop counter.
// (Hits and misses are the kernel's, counted in Access; the callers compare
// every lookup's answer instead.)
func assertSameAsReference(t *testing.T, table *mappingTable, ref *refMappingTable) {
	t.Helper()
	same := func(s hashSlot, r refHashEntry) bool {
		return s.valid == r.valid && (!s.valid || mapKey{s.seg, s.page} == r.key)
	}
	for i := range table.slots {
		if !same(table.slots[i], ref.slots[i]) {
			t.Fatalf("slot %d = %+v, reference %+v", i, table.slots[i], ref.slots[i])
		}
	}
	for i := range table.overflow[:table.ovLen] {
		if !same(table.overflow[i], ref.overflow[i]) {
			t.Fatalf("overflow %d = %+v, reference %+v", i, table.overflow[i], ref.overflow[i])
		}
	}
	s, d := table.stats()
	if _, _, rs, rd := ref.stats(); s != rs || d != rd {
		t.Fatalf("spills/drops = %d/%d, reference %d/%d", s, d, rs, rd)
	}
}

// assertNoDuplicates enforces the overflow-area contract: no key appears
// twice within the overflow area (that would make lookup order-dependent),
// ovLive counts exactly the valid entries, and every slot's homed count is
// the number of valid entries whose index is that slot (find and remove
// skip the area for a key whose home slot reads zero).
func assertNoDuplicates(t *testing.T, table *mappingTable) {
	t.Helper()
	seen := make(map[mapKey]bool)
	homed := make(map[int]int)
	for i := range table.overflow[:table.ovLen] {
		o := table.overflow[i]
		if !o.valid {
			continue
		}
		k := mapKey{o.seg, o.page}
		if seen[k] {
			t.Fatalf("key %v valid twice within the overflow area", k)
		}
		seen[k] = true
		homed[table.index(k)]++
	}
	if table.ovLive != len(seen) {
		t.Fatalf("ovLive = %d with %d valid overflow entries", table.ovLive, len(seen))
	}
	for i := range table.slots {
		if got := int(table.slots[i].homed); got != homed[i] {
			t.Fatalf("slot %d homed = %d with %d valid overflow entries homed there", i, got, homed[i])
		}
	}
}

// FuzzTLB drives the indexed TLB and the linear-scan reference
// (reference_test.go) with one fuzz-chosen stream of lookup / install /
// invalidate / invalidateSegment / installSpan / invalidateSpan / installRun
// and requires the same answer from every lookup and, after every
// operation, the same contents slot for slot, the same round-robin cursor
// and the same span ways — plus an index that lists exactly the valid
// slots, each once. Eight entries over a 32-page, 4-segment universe keep
// the TLB full and its 16 buckets colliding. An installRun of 1..32 keys is
// held to that many single installs on the reference: longer than the TLB
// and with none of its keys cached it steps the cursor over the installs
// that would be overwritten, and a run that finds one of its keys cached —
// the script installs them often enough — must not.
func FuzzTLB(f *testing.F) {
	f.Add([]byte{1, 1, 0, 1, 1, 1, 0, 1, 0, 2, 1, 0, 0, 1, 0})
	f.Add([]byte("install-evict-invalidate-wraparound-segment-flush"))
	f.Add([]byte{4, 0, 8, 0, 0, 9, 5, 0, 8, 0, 0, 9, 3, 0, 0})
	f.Add(tlbCollidingSeed())
	// Runs of 20 and 9 keys into an empty TLB and across its wrap-around,
	// one of exactly its size, then one over a key cached in its middle and
	// one over a key an earlier run left.
	f.Add([]byte{8, 1, 19<<3 | 0, 8, 2, 8<<3 | 0, 8, 0, 7<<3 | 1, 1, 3, 12, 8, 3, 19<<3 | 0, 8, 1, 15<<3 | 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const size = 8
		tl, ref := newTLB(size), newRefTLB(size)
		for len(data) >= 3 {
			op, segByte, pageByte := data[0]%9, data[1]&3, data[2]&31
			run := mapKey{SegID(segByte), int64(data[2] & 7)}
			runLen := int64(data[2]>>3) + 1 // 1..32 keys from page 0..7
			data = data[3:]
			k := mapKey{seg: SegID(segByte), page: int64(pageByte)}
			order := uint8(pageByte>>3) + 1 // 1..4
			span := mapKey{k.seg, extentBase(k.page, int(order))}
			switch op {
			case 8:
				tl.installRun(run, runLen)
				for i := int64(0); i < runLen; i++ {
					ref.install(mapKey{run.seg, run.page + i})
				}
			case 0:
				if got, want := tl.lookup(k), ref.lookup(k); got != want {
					t.Fatalf("lookup(%v) = %v, reference %v", k, got, want)
				}
			case 1, 2, 3: // install weighted 3x: keep the ways full
				tl.install(k)
				ref.install(k)
			case 4:
				tl.invalidate(k)
				ref.invalidate(k)
			case 5:
				tl.invalidateSegment(k.seg)
				ref.invalidateSegment(k.seg)
			case 6:
				tl.installSpan(span, order)
				ref.installSpan(span, order)
			case 7:
				tl.invalidateSpan(span, order)
				ref.invalidateSpan(span, order)
			}
			assertTLBSameAsReference(t, tl, ref)
		}
	})
}

// tlbCollidingSeed builds a corpus entry from keys sharing one index bucket
// of the 8-entry fuzz TLB: a chain as long as the TLB, evicted from its
// tail by wrap-around, then unlinked from the middle and the head.
func tlbCollidingSeed() []byte {
	probe := newTLB(8)
	var pages []byte
	for p := int64(0); p < 32; p++ {
		if probe.bucket(mapKey{seg: 1, page: p}) == probe.bucket(mapKey{seg: 1, page: 0}) {
			pages = append(pages, byte(p))
		}
	}
	var seed []byte
	for round := 0; round < 6; round++ { // re-install past wrap-around
		for _, p := range pages {
			seed = append(seed, 1, 1, p)
		}
		seed = append(seed, 1, 2, byte(round)) // another bucket in between
	}
	for i, p := range pages {
		if i%2 == 1 {
			seed = append(seed, 4, 1, p)
		}
	}
	for _, p := range pages {
		seed = append(seed, 0, 1, p)
	}
	return append(seed, 5, 1, 0)
}

func assertTLBSameAsReference(t *testing.T, tl *tlb, ref *refTLB) {
	t.Helper()
	if tl.next != ref.next || tl.spanNext != ref.spanNext {
		t.Fatalf("next/spanNext = %d/%d, reference %d/%d", tl.next, tl.spanNext, ref.next, ref.spanNext)
	}
	for i := range tl.entries {
		e, r := tl.entries[i], ref.entries[i]
		if e.valid != r.valid || (e.valid && e.key != r.key) {
			t.Fatalf("entry %d = %+v, reference %+v", i, e, r)
		}
	}
	if len(tl.spans) != len(ref.spans) {
		t.Fatalf("%d span ways, reference %d", len(tl.spans), len(ref.spans))
	}
	for i := range tl.spans {
		s, r := tl.spans[i], ref.spans[i]
		if s.valid != r.valid || (s.valid && s != r) {
			t.Fatalf("span way %d = %+v, reference %+v", i, s, r)
		}
	}
	// The index holds every valid slot exactly once, on its key's chain.
	onChain := make([]int, len(tl.entries))
	for b := range tl.heads {
		steps := 0
		for i := tl.heads[b]; i >= 0; i = tl.entries[i].link {
			if steps++; steps > len(tl.entries) {
				t.Fatalf("bucket %d chain does not terminate", b)
			}
			if tl.bucket(tl.entries[i].key) != uint64(b) {
				t.Fatalf("slot %d (%v) chained under bucket %d", i, tl.entries[i].key, b)
			}
			onChain[i]++
		}
	}
	for i := range tl.entries {
		want := 0
		if tl.entries[i].valid {
			want = 1
		}
		if onChain[i] != want {
			t.Fatalf("slot %d valid=%v is on %d chains", i, tl.entries[i].valid, onChain[i])
		}
	}
}
