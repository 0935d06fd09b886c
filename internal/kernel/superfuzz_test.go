package kernel

import (
	"testing"
)

// FuzzExtentTable drives a shrunken CAS table through a fuzz-chosen mix of
// base-page and span (superpage) operations and checks every lookup against
// a linear reference model holding both granularities. The table is a lossy
// cache, so misses are always legal; what must never happen is:
//
//   - a hit returning an entry that is neither the page's base entry nor a
//     live span covering the page,
//   - a hit for a page with no live base entry and no covering span,
//   - a span for one order answering after removeSpan of that order,
//   - any key (tagged or not) live in two slots.
func FuzzExtentTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 2, 1, 16, 4, 0, 1, 17, 0, 3, 1, 2, 0})
	f.Add([]byte("span-over-base-remove-then-probe-every-page"))
	f.Add([]byte{2, 0, 0, 4, 2, 0, 16, 4, 3, 0, 0, 4, 0, 0, 5, 0, 4, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 1, 2, 1, 0, 2, 2, 1, 0, 3, 0, 1, 3, 0, 3, 1, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		table := newCASTableSized(16)
		base := make(map[mapKey]*pageEntry)
		type spanKey struct {
			seg   SegID
			base  int64
			order int
		}
		spans := make(map[spanKey]*pageEntry)
		// covering returns the model entries that may legally answer a
		// lookup of k: the base entry plus any live covering span.
		covering := func(k mapKey) []*pageEntry {
			var ok []*pageEntry
			if e, live := base[k]; live {
				ok = append(ok, e)
			}
			for sk, e := range spans {
				if sk.seg == k.seg && extentBase(k.page, sk.order) == sk.base {
					ok = append(ok, e)
				}
			}
			return ok
		}
		check := func(k mapKey) {
			e, hit := table.lookupEntry(k)
			if !hit {
				return // lossy cache: a miss is always legal
			}
			for _, want := range covering(k) {
				if e == want {
					return
				}
			}
			t.Fatalf("lookup(%v) hit %p, not a live base entry or covering span", k, e)
		}
		for len(data) >= 4 {
			op, segByte, pageByte, ordByte := data[0]%5, data[1]&1, data[2]&31, data[3]
			data = data[4:]
			seg := SegID(segByte)
			page := int64(pageByte)
			order := int(ordByte)%MaxExtentOrder + 1
			k := mapKey{seg: seg, page: page}
			switch op {
			case 0: // insert base entry
				e := &pageEntry{}
				table.insert(k, e)
				base[k] = e
			case 1: // remove base entry
				table.remove(k)
				delete(base, k)
			case 2: // insert span at the covering extent base
				b := extentBase(page, order)
				e := &pageEntry{}
				table.insertSpan(mapKey{seg, b}, e, uint8(order))
				spans[spanKey{seg, b, order}] = e
			case 3: // remove span
				b := extentBase(page, order)
				table.removeSpan(mapKey{seg, b}, uint8(order))
				delete(spans, spanKey{seg, b, order})
			case 4: // drop the whole segment
				table.removeSegment(seg)
				for mk := range base {
					if mk.seg == seg {
						delete(base, mk)
					}
				}
				for sk := range spans {
					if sk.seg == seg {
						delete(spans, sk)
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
			// No key — base or tagged span — may be live in two slots.
			seen := make(map[mapKey]bool)
			for i := range table.slots {
				bx := table.slots[i].Load()
				if bx == nil || bx == casTombstone {
					continue
				}
				if seen[bx.key] {
					t.Fatalf("key %v live in two slots", bx.key)
				}
				seen[bx.key] = true
			}
		}
	})
}
