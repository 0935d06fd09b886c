package kernel

import (
	"testing"
)

// FuzzExtentTable drives a shrunken CAS table through a fuzz-chosen mix of
// base-page and span (superpage) operations and checks every lookup against
// a flat reference set holding both granularities. The table is a lossy
// cache, so misses are always legal; what must never happen is:
//
//   - a hit for a page with no live base entry and no covering span,
//   - a span for one order answering after removeSpan of that order,
//   - a live slot — base or span — holding a key the set does not,
//   - any key (tagged or not) live in two slots.
func FuzzExtentTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 2, 1, 16, 4, 0, 1, 17, 0, 3, 1, 2, 0})
	f.Add([]byte("span-over-base-remove-then-probe-every-page"))
	f.Add([]byte{2, 0, 0, 4, 2, 0, 16, 4, 3, 0, 0, 4, 0, 0, 5, 0, 4, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 1, 2, 1, 0, 2, 2, 1, 0, 3, 0, 1, 3, 0, 3, 1, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		table := newCASTableSized(16)
		// model holds base keys as they are and spans under their tagged
		// key, the form casSlotKey decodes a slot to.
		model := make(map[mapKey]bool)
		check := func(k mapKey) {
			if table.lookup(k) && !modelCovers(model, k) {
				t.Fatalf("lookup(%v) hit with no live base entry or covering span", k)
			}
		}
		for len(data) >= 4 {
			op, segByte, pageByte, ordByte := data[0]%5, data[1]&1, data[2]&31, data[3]
			data = data[4:]
			seg := SegID(segByte)
			page := int64(pageByte)
			order := int(ordByte)%MaxExtentOrder + 1
			k := mapKey{seg: seg, page: page}
			span := mapKey{seg, extentBase(page, order)}
			switch op {
			case 0: // insert base entry
				table.insert(k)
				model[k] = true
				if !table.lookup(k) {
					t.Fatalf("lookup(%v) missed right after insert", k)
				}
			case 1: // remove base entry
				table.remove(k)
				delete(model, k)
			case 2: // insert span at the covering extent base
				table.insertSpan(span, uint8(order))
				model[spanMapKey(span, order)] = true
				if !table.lookup(k) {
					t.Fatalf("lookup(%v) missed right after its order-%d span went in", k, order)
				}
			case 3: // remove span
				table.removeSpan(span, uint8(order))
				delete(model, spanMapKey(span, order))
			case 4: // drop the whole segment
				table.removeSegment(seg)
				for mk := range model {
					if mk.seg == seg {
						delete(model, mk)
					}
				}
			}
			// Probe the touched page and its extent neighbourhood at every
			// order, so span reach and span withdrawal are both exercised.
			check(k)
			for o := 1; o <= MaxExtentOrder; o++ {
				b := extentBase(page, o)
				check(mapKey{seg, b})
				check(mapKey{seg, b + int64(1)<<uint(o) - 1})
			}
			// The slots hold a duplicate-free subset of the set.
			seen := make(map[mapKey]bool)
			for i := range table.slots {
				sk, live := casSlotKey(table.slots[i].Load())
				if !live {
					continue
				}
				if seen[sk] {
					t.Fatalf("key %v live in two slots", sk)
				}
				seen[sk] = true
				if !model[sk] {
					t.Fatalf("key %v live in the table, absent from the set", sk)
				}
			}
		}
	})
}
