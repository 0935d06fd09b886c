package kernel

import (
	"sync/atomic"
	"testing"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

// Layer benchmarks for the TLB, the mapping tables and the batch collision
// check (ROADMAP item 1: "TLB lookup", "mapping-table lookup+insert"). The
// serial structures run beside the reference model each replaced
// (reference_test.go) through the same loop, so one run prints before and
// after; the concurrent scheduler's CAS table runs the same loops alone. All
// of them must report 0 allocs/op. scripts/check.sh smoke-runs them at one
// iteration.

// tlbOps and tableOps are the slices of tlb and mapper the loops below
// drive, through an interface so one loop serves a structure and its
// reference.
type tlbOps interface {
	lookup(k mapKey) bool
	install(k mapKey)
	invalidate(k mapKey)
}

type tableOps interface {
	lookup(k mapKey) bool
	insert(k mapKey)
	remove(k mapKey)
}

// refTablePresence narrows the reference table to the key-only surface:
// lookup reports presence, insert stores one shared entry.
type refTablePresence struct {
	*refMappingTable
	e *pageEntry
}

func (r refTablePresence) lookup(k mapKey) bool {
	_, ok := r.refMappingTable.lookup(k)
	return ok
}

func (r refTablePresence) insert(k mapKey) { r.refMappingTable.insert(k, r.e) }

const benchTLBSize = 64

// benchTLBs hands the TLB and its reference to run.
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

// parallelHits is the two-manager shape of a lookup loop: two goroutines
// (at -cpu 2), each looking up n cached keys of a segment of its own, stride
// pages apart. One op is one hit. The structures' slots are read-shared, so
// what the goroutines can contend on is the hit counter — which is why it
// is striped by the key's segment.
func parallelHits(b *testing.B, fill func(mapKey), lookup func(mapKey) bool, n int, stride int64) {
	var keys [2][]mapKey
	for g := range keys {
		for i := 0; i < n; i++ {
			k := mapKey{seg: SegID(7 + g), page: int64(i) * stride}
			fill(k)
			keys[g] = append(keys[g], k)
		}
	}
	var next, missed atomic.Int64
	b.SetParallelism(1)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mine, misses := keys[next.Add(1)&1], int64(0)
		for i := 0; pb.Next(); i++ {
			if !lookup(mine[i%n]) {
				misses++
			}
		}
		missed.Add(misses)
	})
	if m := missed.Load(); m != 0 {
		b.Fatalf("%d of %d lookups missed", m, b.N)
	}
}

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

// BenchmarkTLBInstall: hit re-installs a cached key (no slot consumed), miss installs
// a fresh key over the round-robin victim every time.
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

// BenchmarkTLBInvalidate: hit drops a cached key (the TLB is refilled off the clock
// every 64 operations), miss names a key that is not cached.
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

// tableBench hands each mapping table under test to run: benchTables the
// serial table and its reference, benchCASTable the concurrent scheduler's.
type tableBench func(b *testing.B, run func(b *testing.B, t tableOps))

func benchTables(b *testing.B, run func(b *testing.B, t tableOps)) {
	b.Run("keys", func(b *testing.B) { b.ReportAllocs(); run(b, newMappingTable()) })
	b.Run("entries", func(b *testing.B) {
		b.ReportAllocs()
		run(b, refTablePresence{newRefMappingTable(hashTableSlots, hashOverflow), &pageEntry{}})
	})
}

// benchFullOverflow runs benchTables with the overflow area full before the
// loop starts: the state fill and extent run in once enough keys collided.
// The colliding keys (hashtable_test.go) share one home slot that no
// working-set key hashes to, so the loop never displaces them and the area
// stays full.
func benchFullOverflow(b *testing.B, run func(b *testing.B, t tableOps)) {
	mt := newMappingTable()
	colliding := collidingKeys(mt, hashOverflow+1)
	for _, k := range tableKeys() {
		if mt.index(k) == mt.index(colliding[0]) {
			b.Fatalf("working-set key %v shares the colliding keys' home slot", k)
		}
	}
	benchTables(b, func(b *testing.B, t tableOps) {
		for _, k := range colliding {
			t.insert(k)
		}
		run(b, t)
	})
}

func benchCASTable(b *testing.B, run func(b *testing.B, t tableOps)) {
	b.ReportAllocs()
	run(b, newCASTable())
}

func BenchmarkMappingTableInsert(b *testing.B) { tableInsert(b, benchTables) }
func BenchmarkCASTableRemove(b *testing.B)     { tableRemove(b, benchCASTable) }

func BenchmarkMappingTableRemove(b *testing.B) {
	tableRemove(b, benchTables)
	b.Run("full-overflow", func(b *testing.B) { tableRemove(b, benchFullOverflow) })
}

func BenchmarkMappingTableLookup(b *testing.B) {
	tableLookup(b, benchTables)
	b.Run("full-overflow", func(b *testing.B) { tableLookup(b, benchFullOverflow) })
}

func BenchmarkCASTableLookup(b *testing.B) {
	tableLookup(b, benchCASTable)
	b.Run("parallel-hit", func(b *testing.B) {
		t := newCASTable()
		parallelHits(b, t.insert, t.lookup, benchTableKeys/2, 4)
	})
}

// BenchmarkCASTableInsert: fresh is the fault path's insert — the key is
// not cached and lands in a slot an earlier remove tombstoned (the table is
// emptied off the clock once per pass over the key set); cached re-inserts
// a key the table already holds.
func BenchmarkCASTableInsert(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		benchCASTable(b, func(b *testing.B, t tableOps) {
			keys := tableKeys()
			for _, k := range keys {
				t.insert(k)
			}
			for i := 0; i < b.N; i++ {
				if i%benchTableKeys == 0 {
					b.StopTimer()
					for _, k := range keys {
						t.remove(k)
					}
					b.StartTimer()
				}
				t.insert(keys[i%benchTableKeys])
			}
		})
	})
	b.Run("cached", func(b *testing.B) { tableInsert(b, benchCASTable) })
}

// tableInsert cycles over the key set, so after the first pass every insert
// finds its key cached.
func tableInsert(b *testing.B, each tableBench) {
	each(b, func(b *testing.B, t tableOps) {
		keys := tableKeys()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.insert(keys[i%benchTableKeys])
		}
	})
}

// tableRemove removes cached keys; the table is refilled off the clock once
// per pass over the key set.
func tableRemove(b *testing.B, each tableBench) {
	each(b, func(b *testing.B, t tableOps) {
		keys := tableKeys()
		for i := 0; i < b.N; i++ {
			if i%benchTableKeys == 0 {
				b.StopTimer()
				for _, k := range keys {
					t.insert(k)
				}
				b.StartTimer()
			}
			t.remove(keys[i%benchTableKeys])
		}
	})
}

func tableLookup(b *testing.B, each tableBench) {
	for _, hit := range []bool{true, false} {
		name := "miss"
		if hit {
			name = "hit"
		}
		b.Run(name, func(b *testing.B) {
			each(b, func(b *testing.B, t tableOps) {
				keys := tableKeys()
				if hit {
					for _, k := range keys {
						t.insert(k)
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

// scatteredSingles is n single-page ranges whose source and destination
// pages are scattered over [0, span): the grant batch a fragmented pool
// produces. span is a power of two, so the odd multipliers permute it.
func scatteredSingles(n int, span int64) []PageRange {
	ranges := make([]PageRange, n)
	for i := range ranges {
		ranges[i] = PageRange{Page: int64(i) * 4093 % span, To: int64(i) * 7919 % span, Pages: 1}
	}
	return ranges
}

var benchErr error

// BenchmarkCheckDisjoint runs the batch collision check over its three
// collision-free shapes: ranges ascending on both sides (proved in one
// pass), a few unsorted runs (the extent magazine's grant, compared
// pairwise) and a scattered single-page grant — measured after a
// 16 384-range batch, the size of a whole-pool ReturnFrames, has been through
// the pooled scratch, because that is the order a run meets them in and the
// small check must not pay for the large one.
func BenchmarkCheckDisjoint(b *testing.B) {
	src, dst := &Segment{}, &Segment{}
	run := func(name string, ranges []PageRange, warm []PageRange) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			if err := checkDisjoint(src, dst, warm, 1, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchErr = checkDisjoint(src, dst, ranges, 1, 1)
			}
			if benchErr != nil {
				b.Fatal(benchErr)
			}
		})
	}
	sorted := make([]PageRange, 64)
	for i := range sorted {
		sorted[i] = PageRange{Page: int64(i) * 3, To: int64(i) * 5, Pages: 2}
	}
	run("sorted64", sorted, nil)
	runs := scatteredSingles(8, 512)
	for i := range runs {
		runs[i] = PageRange{Page: runs[i].Page * 16, To: runs[i].To * 16, Pages: 16}
	}
	run("unsorted8x16", runs, nil)
	run("scattered190-after-16k", scatteredSingles(190, 8192), scatteredSingles(16384, 16384))
}

// nopManager resolves nothing: BenchmarkDeliverFault prices the delivery
// plane around the handler, not the handler.
type nopManager struct{}

func (nopManager) ManagerName() string    { return "nop" }
func (nopManager) Delivery() DeliveryMode { return DeliverSameProcess }
func (nopManager) HandleFault(Fault) error {
	return nil
}
func (nopManager) SegmentDeleted(*Segment) {}

// BenchmarkDeliverFault: one op is one fault from deliverFault through the
// scheduler's post and processFaultRun (stats, trap, delivery and return
// charges) to a handler that does nothing, and back — the serial direct
// call, and the concurrent scheduler's inline path (lane idle, token taken,
// no enqueue). Neither allocates.
func BenchmarkDeliverFault(b *testing.B) {
	for _, mode := range []string{"serial", "concurrent"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 1 << 20})
			k := New(mem, new(sim.Clock), sim.DECstation5000(), Config{})
			if mode == "concurrent" {
				k.SetScheduler(NewConcurrentScheduler(k))
			}
			defer k.Scheduler().Stop()
			seg, err := k.CreateSegment("space", 1)
			if err != nil {
				b.Fatal(err)
			}
			k.SetSegmentManager(seg, nopManager{})
			f := Fault{Seg: seg, Page: 3, Access: Write, Kind: FaultMissing}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchErr = k.deliverFault(f)
			}
			b.StopTimer()
			if benchErr != nil {
				b.Fatal(benchErr)
			}
			if got := testing.AllocsPerRun(20, func() { benchErr = k.deliverFault(f) }); got != 0 {
				b.Fatalf("%v allocs per delivery, want 0", got)
			}
			if got := k.Stats().Faults; got != int64(b.N)+21 {
				b.Fatalf("%d faults counted for %d deliveries", got, b.N+21)
			}
		})
	}
}

// stockMgr serves each missing page with the next page of its pool, in
// order; BenchmarkAccess hands the pool back between rounds.
type stockMgr struct {
	k    *Kernel
	pool *Segment
	next int64
}

func (m *stockMgr) ManagerName() string    { return "stock" }
func (m *stockMgr) Delivery() DeliveryMode { return DeliverSameProcess }
func (m *stockMgr) HandleFault(f Fault) error {
	m.next++
	return m.k.MigratePages(AppCred, m.pool, f.Seg, m.next-1, f.Page, 1, FlagRW, 0)
}
func (*stockMgr) SegmentDeleted(*Segment) {}

// BenchmarkAccess: one op is one Access. resident/serial and
// resident/concurrent hit a resident page the TLB holds — resolve's one hop,
// the flag check and the TLB probe, under the segment lock only on the
// concurrent kernel. fault/serial is a first touch: the missing fault,
// its delivery to a manager stocked with a 4 096-page pool, the manager's
// MigratePages and the retry's walk and cache fill; the pool is handed back,
// off the clock, each time it runs dry. None of them allocates.
func BenchmarkAccess(b *testing.B) {
	const pages = 4096
	boot := func(b *testing.B, concurrent bool) (*Kernel, *Segment, *stockMgr) {
		mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: pages * 4096})
		k := New(mem, new(sim.Clock), sim.DECstation5000(), Config{Concurrent: concurrent})
		pool, err := k.CreateSegment("pool", 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := k.MigratePages(SystemCred, k.BootSegment(), pool, 0, 0, pages, 0, 0); err != nil {
			b.Fatal(err)
		}
		seg, err := k.CreateSegment("space", 1)
		if err != nil {
			b.Fatal(err)
		}
		m := &stockMgr{k: k, pool: pool}
		k.SetSegmentManager(seg, m)
		return k, seg, m
	}
	for _, mode := range []string{"serial", "concurrent"} {
		b.Run("resident/"+mode, func(b *testing.B) {
			b.ReportAllocs()
			k, seg, _ := boot(b, mode == "concurrent")
			defer k.Scheduler().Stop()
			hit := func() { benchErr = k.Access(seg, 0, Read) }
			hit() // the fault that makes page 0 resident and cached
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit()
			}
			b.StopTimer()
			if benchErr != nil {
				b.Fatal(benchErr)
			}
			if got := testing.AllocsPerRun(20, hit); got != 0 {
				b.Fatalf("%v allocs per resident hit, want 0", got)
			}
		})
	}
	b.Run("fault/serial", func(b *testing.B) {
		b.ReportAllocs()
		k, seg, m := boot(b, false)
		var page int64
		touch := func() {
			benchErr = k.Access(seg, page, Write)
			page++
		}
		refill := func() {
			if err := k.MigratePages(AppCred, seg, m.pool, 0, 0, page, 0, FlagRW|FlagDirty|FlagReferenced); err != nil {
				b.Fatal(err)
			}
			page, m.next = 0, 0
		}
		if got := testing.AllocsPerRun(20, touch); got != 0 {
			b.Fatalf("%v allocs per first touch, want 0", got)
		}
		refill()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if page == pages {
				b.StopTimer()
				refill()
				b.StartTimer()
			}
			touch()
		}
		b.StopTimer()
		if benchErr != nil {
			b.Fatal(benchErr)
		}
	})
}
