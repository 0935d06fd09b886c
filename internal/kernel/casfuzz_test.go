package kernel

import (
	"testing"
)

// FuzzCASTable drives a shrunken CAS table (16 slots, probe window 8 —
// small enough that spills, displacements and tombstone reuse happen within
// a handful of operations) through a fuzz-chosen op sequence and checks it
// against a reference map, mirroring FuzzMappingTable's contract for the
// paper table. The table is a lossy cache, so a miss on a present key is
// legal; what must never happen is:
//
//   - a lookup hit returning a stale entry pointer,
//   - a hit after remove or removeSegment,
//   - the same key live in two slots (insert must replace in place, even
//     when the key sits in a spill slot behind a reusable tombstone).
func FuzzCASTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 1, 1, 2, 2, 1, 0})
	f.Add([]byte("insert-remove-collide-tombstone-reuse"))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		table := newCASTableSized(16)
		model := make(map[mapKey]*pageEntry)
		for len(data) >= 3 {
			op, segByte, pageByte := data[0]&3, data[1]&3, data[2]&7
			data = data[3:]
			k := mapKey{seg: SegID(segByte), page: int64(pageByte)}
			switch op {
			case 0, 1: // insert weighted 2x: build occupancy
				e := &pageEntry{}
				table.insert(k, e)
				model[k] = e
				if got, ok := table.lookupEntry(k); !ok || got != e {
					t.Fatalf("lookup(%v) after insert: got %p ok=%v, want %p", k, got, ok, e)
				}
			case 2:
				table.remove(k)
				delete(model, k)
				if _, ok := table.lookupEntry(k); ok {
					t.Fatalf("lookup(%v) hit after remove", k)
				}
			case 3:
				table.removeSegment(k.seg)
				for mk := range model {
					if mk.seg == k.seg {
						delete(model, mk)
					}
				}
				if _, ok := table.lookupEntry(k); ok {
					t.Fatalf("lookup(%v) hit after removeSegment", k)
				}
			}
			for mk, me := range model {
				if got, ok := table.lookupEntry(mk); ok && got != me {
					t.Fatalf("lookup(%v): stale entry %p, want %p", mk, got, me)
				}
			}
			// No key may be live twice; displaced keys may be absent.
			seen := make(map[mapKey]bool)
			for i := range table.slots {
				b := table.slots[i].Load()
				if b == nil || b == casTombstone {
					continue
				}
				if seen[b.key] {
					t.Fatalf("key %v live in two slots", b.key)
				}
				seen[b.key] = true
				if b.entry != model[b.key] {
					t.Fatalf("key %v: live box holds %p, model %p", b.key, b.entry, model[b.key])
				}
			}
		}
	})
}
