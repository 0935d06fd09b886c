package kernel

import "testing"

// Layer benchmarks for the serial scheduler's TLB and mapping table (ROADMAP
// item 1: "TLB lookup", "mapping-table lookup+insert"). Every benchmark
// runs the production structure and the reference model it replaced
// (reference_test.go) through the same loop, so one run prints before and
// after; all of them must report 0 allocs/op. scripts/check.sh smoke-runs
// them at one iteration.

// tlbOps and tableOps are the slices of translator and mapper the loops
// below drive; the kernel reaches both structures through an interface as
// well, so the dispatch cost is in the numbers on both sides.
type tlbOps interface {
	lookup(k mapKey) bool
	install(k mapKey)
	invalidate(k mapKey)
}

type tableOps interface {
	lookup(k mapKey) bool
	insert(k mapKey, e *pageEntry)
	remove(k mapKey)
}

// refTablePresence narrows the reference table's lookup to presence.
type refTablePresence struct{ *refMappingTable }

func (r refTablePresence) lookup(k mapKey) bool {
	_, ok := r.refMappingTable.lookup(k)
	return ok
}

const benchTLBSize = 64

func benchTLBs(b *testing.B, run func(b *testing.B, t tlbOps)) {
	b.Run("indexed", func(b *testing.B) { b.ReportAllocs(); run(b, newTLB(benchTLBSize)) })
	b.Run("linear", func(b *testing.B) { b.ReportAllocs(); run(b, newRefTLB(benchTLBSize)) })
}

// tlbKeys are consecutive pages of one segment, the shape a fill produces.
func tlbKeys(from, n int) []mapKey {
	keys := make([]mapKey, n)
	for i := range keys {
		keys[i] = mapKey{seg: 7, page: int64(from + i)}
	}
	return keys
}

var benchSink bool

func BenchmarkTLBLookup(b *testing.B) {
	resident, absent := tlbKeys(0, benchTLBSize), tlbKeys(1000, benchTLBSize)
	for _, c := range []struct {
		name string
		keys []mapKey
	}{{"hit", resident}, {"miss", absent}} {
		b.Run(c.name, func(b *testing.B) {
			benchTLBs(b, func(b *testing.B, t tlbOps) {
				for _, k := range resident {
					t.install(k)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink = t.lookup(c.keys[i%benchTLBSize])
				}
			})
		})
	}
}

// BenchmarkTLBInstall: hit re-installs a cached key (no slot consumed),
// miss installs a fresh key over the round-robin victim every time.
func BenchmarkTLBInstall(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		benchTLBs(b, func(b *testing.B, t tlbOps) {
			keys := tlbKeys(0, benchTLBSize)
			for _, k := range keys {
				t.install(k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.install(keys[i%benchTLBSize])
			}
		})
	})
	b.Run("miss", func(b *testing.B) {
		benchTLBs(b, func(b *testing.B, t tlbOps) {
			for i := 0; i < b.N; i++ {
				t.install(mapKey{seg: 7, page: int64(i)})
			}
		})
	})
}

// BenchmarkTLBInvalidate: hit drops a cached key (the TLB is refilled off
// the clock every 64 operations), miss names a key that is not cached.
func BenchmarkTLBInvalidate(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		benchTLBs(b, func(b *testing.B, t tlbOps) {
			keys := tlbKeys(0, benchTLBSize)
			for i := 0; i < b.N; i++ {
				if i%benchTLBSize == 0 {
					b.StopTimer()
					for _, k := range keys {
						t.install(k)
					}
					b.StartTimer()
				}
				t.invalidate(keys[i%benchTLBSize])
			}
		})
	})
	b.Run("miss", func(b *testing.B) {
		benchTLBs(b, func(b *testing.B, t tlbOps) {
			for _, k := range tlbKeys(0, benchTLBSize) {
				t.install(k)
			}
			absent := tlbKeys(1000, benchTLBSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.invalidate(absent[i%benchTLBSize])
			}
		})
	})
}

// benchTableKeys is the mapping-table working set: 16 K keys a 4-page
// stride apart, which the Fibonacci hash scatters over the whole 64 K-slot
// table, so consecutive operations touch different cache lines.
const benchTableKeys = 16 * 1024

func tableKeys() []mapKey {
	keys := make([]mapKey, benchTableKeys)
	for i := range keys {
		keys[i] = mapKey{seg: 7, page: int64(i) * 4}
	}
	return keys
}

func benchTables(b *testing.B, run func(b *testing.B, t tableOps)) {
	b.Run("keys", func(b *testing.B) { b.ReportAllocs(); run(b, newMappingTable()) })
	b.Run("entries", func(b *testing.B) {
		b.ReportAllocs()
		run(b, refTablePresence{newRefMappingTable(hashTableSlots, hashOverflow)})
	})
}

func BenchmarkMappingTableInsert(b *testing.B) {
	benchTables(b, func(b *testing.B, t tableOps) {
		keys, e := tableKeys(), &pageEntry{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.insert(keys[i%benchTableKeys], e)
		}
	})
}

// BenchmarkMappingTableRemove removes cached keys; the table is refilled
// off the clock once per pass over the key set.
func BenchmarkMappingTableRemove(b *testing.B) {
	benchTables(b, func(b *testing.B, t tableOps) {
		keys, e := tableKeys(), &pageEntry{}
		for i := 0; i < b.N; i++ {
			if i%benchTableKeys == 0 {
				b.StopTimer()
				for _, k := range keys {
					t.insert(k, e)
				}
				b.StartTimer()
			}
			t.remove(keys[i%benchTableKeys])
		}
	})
}

func BenchmarkMappingTableLookup(b *testing.B) {
	for _, hit := range []bool{true, false} {
		name := "miss"
		if hit {
			name = "hit"
		}
		b.Run(name, func(b *testing.B) {
			benchTables(b, func(b *testing.B, t tableOps) {
				keys := tableKeys()
				if hit {
					for _, k := range keys {
						t.insert(k, &pageEntry{})
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink = t.lookup(keys[i%benchTableKeys])
				}
			})
		})
	}
}
