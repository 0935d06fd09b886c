package kernel

import (
	"testing"
)

// FuzzCASTable drives a shrunken CAS table (16 slots, probe window 8 —
// small enough that spills, displacements and tombstone reuse happen within
// a handful of operations) through a fuzz-chosen op sequence and checks it
// against a flat reference set, mirroring FuzzMappingTable's contract for
// the paper table. The table is a lossy cache, so a miss on a present key is
// legal — but only after a displacement, which the table counts. What must
// never happen is:
//
//   - a miss right after insert, or a hit after remove or removeSegment,
//   - a live slot holding a key the set does not,
//   - a set key missing from the slots without a drop to account for it,
//   - the same key live in two slots (insert must find the cached copy,
//     even when it sits in a spill slot behind a reusable tombstone).
func FuzzCASTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 1, 1, 2, 2, 1, 0})
	f.Add([]byte("insert-remove-collide-tombstone-reuse"))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		table := newCASTableSized(16)
		model := make(map[mapKey]bool)
		for len(data) >= 3 {
			op, segByte, pageByte := data[0]&3, data[1]&3, data[2]&7
			data = data[3:]
			k := mapKey{seg: SegID(segByte), page: int64(pageByte)}
			switch op {
			case 0, 1: // insert weighted 2x: build occupancy
				table.insert(k)
				model[k] = true
				if !table.lookup(k) {
					t.Fatalf("lookup(%v) missed right after insert", k)
				}
			case 2:
				table.remove(k)
				delete(model, k)
				if table.lookup(k) {
					t.Fatalf("lookup(%v) hit after remove", k)
				}
			case 3:
				table.removeSegment(k.seg)
				for mk := range model {
					if mk.seg == k.seg {
						delete(model, mk)
					}
				}
				if table.lookup(k) {
					t.Fatalf("lookup(%v) hit after removeSegment", k)
				}
			}
			// The slots hold a duplicate-free subset of the set, every
			// held key is found, and the set keys the slots lack were
			// displaced: there are at most as many as counted drops.
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
			for mk := range model {
				if got := table.lookup(mk); got != seen[mk] {
					t.Fatalf("lookup(%v) = %v with the key live in a slot: %v", mk, got, seen[mk])
				}
			}
			if _, _, _, drops := table.stats(); int64(len(model)-len(seen)) > drops {
				t.Fatalf("%d set keys missing from the slots, only %d drops counted", len(model)-len(seen), drops)
			}
		}
	})
}
