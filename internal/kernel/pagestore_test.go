package kernel

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

// pageStoreOps is a generated op sequence for the equivalence property.
type pageStoreOps struct {
	ops []pageStoreOp
}

type pageStoreOp struct {
	// 0 put, 1 del, 2 get, 3 reserve [page, page+n), 4 move [page, page+n)
	// to the other store at to as a run, 5 forEach stopping after n%50+1
	// pages, 6 the first absent and the first present page of [page, page+n)
	kind  int
	store int // which of the two stores
	page  int64
	n     int64
	to    int64
}

// Generate implements quick.Generator, biasing pages toward the dense
// region but — in half the sequences — including far-out sparse pages so
// both arms are exercised; the other half keep sparse empty.
func (pageStoreOps) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(200) + 1
	classes := 2 + 2*r.Intn(2)
	ops := make([]pageStoreOp, n)
	for i := range ops {
		var page int64
		switch r.Intn(classes) {
		case 0:
			page = r.Int63n(64) // dense, clustered
		case 1:
			page = r.Int63n(pageStoreDenseDirect) // dense, spread
		case 2:
			page = pageStoreDenseDirect + r.Int63n(1<<24) // growth / sparse boundary
		default:
			page = pageStoreDenseMax + r.Int63n(1<<30) // strictly sparse
		}
		op := pageStoreOp{kind: r.Intn(7), store: r.Intn(2), page: page, n: 1 + r.Int63n(3*pageStoreDenseDirect)}
		switch op.kind {
		case 4:
			op.page, op.to, op.n = r.Int63n(6_000), r.Int63n(6_000), 1+r.Int63n(300)
		case 6:
			op.n = 1 + r.Int63n(300)
		}
		ops[i] = op
	}
	return reflect.ValueOf(pageStoreOps{ops: ops})
}

func sortedPages(model map[int64]pageEntry) []int64 {
	pages := make([]int64, 0, len(model))
	for p := range model {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	return pages
}

// TestPageStoreMatchesMapModel drives two pageStores and a plain map each
// through random op sequences and requires identical observable behaviour —
// the dense/sparse split must be invisible, and so must a range changing
// stores as a run (mirroring the frame-conservation invariant discipline of
// DESIGN.md §6). Entries are values, so every put carries a frame number no
// other put used: an entry that lands on the wrong page, or survives a
// delete, reads back as some other put's value.
func TestPageStoreMatchesMapModel(t *testing.T) {
	property := func(seq pageStoreOps) bool {
		var stores [2]pageStore
		models := [2]map[int64]pageEntry{{}, {}}
		tag := phys.PFN(0)
		entry := func(flags PageFlags) pageEntry {
			tag++
			return pageEntry{pfn: tag, flags: flags, live: true}
		}
		for _, op := range seq.ops {
			ps, model := &stores[op.store], models[op.store]
			switch op.kind {
			case 0:
				e := entry(PageFlags(op.page % 7))
				ps.put(op.page, e)
				model[op.page] = e
			case 1:
				ps.del(op.page)
				delete(model, op.page)
			case 2:
				got, ok := ps.get(op.page)
				want, wok := model[op.page]
				if ok != wok || ok && *got != want || ps.has(op.page) != wok {
					t.Logf("get(%d) = (%+v,%v), has %v, model (%+v,%v)", op.page, got, ok, ps.has(op.page), want, wok)
					return false
				}
			case 3:
				ps.reserve(op.page, op.page+op.n) // holds nothing: the model does not move
			case 4:
				// As migrate leaves things for its range body: the source
				// range all present, the destination's all absent and
				// reserved.
				dst, dstModel := &stores[1-op.store], models[1-op.store]
				for i := int64(0); i < op.n; i++ {
					if _, ok := model[op.page+i]; !ok {
						e := entry(0)
						ps.put(op.page+i, e)
						model[op.page+i] = e
					}
					dst.del(op.to + i)
					delete(dstModel, op.to+i)
				}
				dst.reserve(op.to, op.to+op.n)
				set, unset := PageFlags(op.page%5), PageFlags(op.to%3)
				moved := ps.moveRun(dst, op.page, op.to, op.n, set, unset)
				if int64(len(moved)) != op.n {
					t.Logf("moveRun(%d -> %d, %d) returned %d entries", op.page, op.to, op.n, len(moved))
					return false
				}
				for i, e := range moved {
					want := model[op.page+int64(i)]
					want.flags = want.flags.Apply(set, unset)
					if e.pfn != want.pfn || e.flags != want.flags {
						t.Logf("moveRun(%d -> %d, %d): entry %d is %+v, page %d's moved is %+v", op.page, op.to, op.n, i, e, op.page+int64(i), want)
						return false
					}
					delete(model, op.page+int64(i))
					dstModel[op.to+int64(i)] = want
				}
			case 5:
				want := sortedPages(model)
				want = want[:min(len(want), int(op.n%50)+1)]
				var seen []int64
				same := true
				ps.forEach(func(page int64, e *pageEntry) bool {
					seen = append(seen, page)
					same = same && model[page] == *e
					return len(seen) < len(want)
				})
				if !same || !slices.Equal(seen, want) {
					t.Logf("forEach stopped after %d pages visited %v (the model's entries: %v), model %v", len(want), seen, same, want)
					return false
				}
			case 6:
				absent, present := op.n, op.n
				for i := op.n - 1; i >= 0; i-- {
					if _, ok := model[op.page+i]; ok {
						present = i
					} else {
						absent = i
					}
				}
				if got := ps.firstAbsent(op.page, op.n); got != absent {
					t.Logf("firstAbsent(%d, %d) = %d, model %d", op.page, op.n, got, absent)
					return false
				}
				if got := ps.firstPresent(op.page, op.n); got != present {
					t.Logf("firstPresent(%d, %d) = %d, model %d", op.page, op.n, got, present)
					return false
				}
			}
			for i := range stores {
				if stores[i].len() != len(models[i]) {
					t.Logf("store %d: len = %d, model %d", i, stores[i].len(), len(models[i]))
					return false
				}
				for p := range stores[i].sparse {
					if p < int64(len(stores[i].dense)) {
						t.Logf("store %d: page %d in sparse under a dense prefix of %d", i, p, len(stores[i].dense))
						return false
					}
				}
			}
		}
		// Final sweep: pages() must be the model's keys in ascending order,
		// and forEach must visit exactly the same pages with the same entries.
		for i := range stores {
			ps, model := &stores[i], models[i]
			if pages, want := ps.pages(), sortedPages(model); !slices.Equal(pages, want) {
				t.Logf("store %d: pages() = %v, model %v", i, pages, want)
				return false
			}
			visited, okAll := 0, true
			ps.forEach(func(page int64, e *pageEntry) bool {
				visited++
				okAll = okAll && model[page] == *e
				return true
			})
			if !okAll || visited != len(model) {
				t.Logf("store %d: forEach visited %d pages (the model's entries: %v), model %d", i, visited, okAll, len(model))
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPageStoreForEachEarlyExit checks that returning false stops the walk.
func TestPageStoreForEachEarlyExit(t *testing.T) {
	var ps pageStore
	for p := int64(0); p < 10; p++ {
		ps.put(p, pageEntry{})
	}
	ps.put(pageStoreDenseMax+5, pageEntry{}) // sparse arm
	var seen []int64
	ps.forEach(func(page int64, _ *pageEntry) bool {
		seen = append(seen, page)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Fatalf("early-exit walk visited %v", seen)
	}
}

// TestPageStoreDeleteDuringForEach checks the documented allowance: fn may
// delete the page it was called with.
func TestPageStoreDeleteDuringForEach(t *testing.T) {
	var ps pageStore
	for p := int64(0); p < 8; p++ {
		ps.put(p, pageEntry{})
	}
	ps.put(pageStoreDenseMax+1, pageEntry{})
	ps.put(pageStoreDenseMax+9, pageEntry{})
	ps.forEach(func(page int64, _ *pageEntry) bool {
		ps.del(page)
		return true
	})
	if ps.len() != 0 {
		t.Fatalf("%d pages left after delete-all walk", ps.len())
	}
}

// TestPageStoreDenseGrowthAdoptsSparse pins the multi-driver shadowing bug:
// a put at a high page lands in sparse while the dense prefix is short; a
// later put that grows the dense prefix past that page must adopt the sparse
// entry, not shadow it behind a nil dense slot. This is exactly the shape
// several application threads produce faulting disjoint sub-ranges of one
// segment — the high-range threads park pages in sparse, the low-range
// thread's sequential growth overtakes them.
func TestPageStoreDenseGrowthAdoptsSparse(t *testing.T) {
	var ps pageStore
	high := pageEntry{pfn: 1, flags: FlagDirty, live: true}
	ps.put(10_000, high) // dense is empty: 10_000 >= 2*0 and >= direct, so sparse
	if ps.len() != 1 {
		t.Fatalf("len = %d after one put", ps.len())
	}
	// Grow the dense prefix over it: 6_000 < 2*6_000, admitted dense once the
	// prefix reaches 3_000; walk it up in admitted steps.
	for _, p := range []int64{2_000, 3_999, 7_000, 13_000} {
		ps.put(p, pageEntry{})
	}
	if got, ok := ps.get(10_000); !ok || *got != high {
		t.Fatalf("get(10_000) = (%+v,%v) after dense growth, want (%+v,true)", got, ok, high)
	}
	if ps.len() != 5 {
		t.Fatalf("len = %d, want 5", ps.len())
	}
	// Replacing the adopted entry must not double-count.
	repl := pageEntry{pfn: 2, live: true}
	ps.put(10_000, repl)
	if got, _ := ps.get(10_000); *got != repl || ps.len() != 5 {
		t.Fatalf("after replace: get = %+v len = %d, want %+v len 5", got, ps.len(), repl)
	}
	ps.del(10_000)
	if ps.has(10_000) || ps.len() != 4 {
		t.Fatalf("after del: has=%v len=%d", ps.has(10_000), ps.len())
	}

	// reserve grows the prefix the same way: a page parked beyond it is
	// taken over, so its dense slot answers for it.
	parked := pageEntry{pfn: 3, flags: FlagRead, live: true}
	ps.put(40_000, parked) // 40_000 >= 2*13_001: sparse
	if len(ps.sparse) != 1 {
		t.Fatalf("%d pages in sparse, want 1", len(ps.sparse))
	}
	ps.reserve(14_000, 50_000) // 14_000 < 2*13_001: admitted, up to 50_000
	if len(ps.sparse) != 0 || len(ps.dense) != 50_000 || ps.dense[40_000] != parked || ps.len() != 5 {
		t.Fatalf("after reserve: sparse %d, dense %d, slot %+v, len %d; want 0, 50000, %+v, 5",
			len(ps.sparse), len(ps.dense), ps.dense[40_000], ps.len(), parked)
	}
}

// TestPageStoreReserveTakesThePutsDecision holds reserve to its contract:
// reserve(lo, end) followed by a put of every page of [lo, end) leaves the
// store as those puts alone would — the same dense prefix, the same pages
// in sparse — wherever the range starts relative to the prefix.
func TestPageStoreReserveTakesThePutsDecision(t *testing.T) {
	nearMax := []int64{4_000, 7_999, 15_000, 29_000, 57_000, 113_000, 225_000, 449_000, 897_000, 1_793_000, pageStoreDenseMax - 20}
	cases := []struct {
		name    string
		before  []int64 // single puts that shape the store first
		lo, end int64
	}{
		{"empty store, from zero", nil, 0, 5_000},
		{"empty store, low gap admitted", nil, 100, 300},
		{"empty store, far start refused", nil, 10_000, 10_050},
		{"inside the prefix", []int64{999}, 10, 500},
		{"across the end of the prefix", []int64{999}, 990, 1_500},
		{"past the prefix, under twice its length", []int64{2_999}, 5_000, 5_100},
		{"past the prefix, at twice its length", []int64{2_999}, 6_000, 6_100},
		{"over a page parked in sparse", []int64{10_000, 2_999}, 3_000, 12_000},
		{"across the dense cap", nearMax, pageStoreDenseMax - 30, pageStoreDenseMax + 10},
		{"beyond the dense cap", nil, pageStoreDenseMax + 5, pageStoreDenseMax + 9},
	}
	for _, c := range cases {
		var reserved, plain pageStore
		for _, p := range c.before {
			reserved.put(p, pageEntry{})
			plain.put(p, pageEntry{})
		}
		reserved.reserve(c.lo, c.end)
		for _, p := range c.before { // a reserved prefix hides nothing already held
			if !reserved.has(p) {
				t.Fatalf("%s: page %d lost to reserve", c.name, p)
			}
		}
		for p := c.lo; p < c.end; p++ {
			reserved.put(p, pageEntry{})
			plain.put(p, pageEntry{})
		}
		if len(reserved.dense) != len(plain.dense) || len(reserved.sparse) != len(plain.sparse) || reserved.len() != plain.len() {
			t.Fatalf("%s: dense/sparse/len = %d/%d/%d, puts alone give %d/%d/%d", c.name,
				len(reserved.dense), len(reserved.sparse), reserved.len(),
				len(plain.dense), len(plain.sparse), plain.len())
		}
		for p := range plain.sparse {
			if _, ok := reserved.sparse[p]; !ok {
				t.Fatalf("%s: page %d is in sparse after puts alone, not after reserve", c.name, p)
			}
		}
	}
}

// TestPageStoreNegativePagePanics pins the contract violation mode.
func TestPageStoreNegativePagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("put(-1) did not panic")
		}
	}()
	var ps pageStore
	ps.put(-1, pageEntry{})
}

// A fresh kernel's boot segment, frame owners and frame pages are what one
// put per frame in PFN order builds: the same count, the same entries, the
// same dense prefix and nothing sparse. identityRun alone is held to the
// same puts past pageStoreDenseMax, where they go sparse.
func TestBootStoreMatchesPerPagePuts(t *testing.T) {
	perPage := func(n int64) *pageStore {
		ps := new(pageStore)
		ps.reserve(0, n)
		for p := int64(0); p < n; p++ {
			ps.put(p, pageEntry{pfn: phys.PFN(p)})
		}
		return ps
	}
	same := func(what string, got, want *pageStore) {
		t.Helper()
		if got.n != want.n || !slices.Equal(got.dense, want.dense) || !reflect.DeepEqual(got.sparse, want.sparse) {
			t.Fatalf("%s: %d pages, %d dense, %d sparse; per-page puts build %d, %d, %d (or the entries differ)",
				what, got.n, len(got.dense), len(got.sparse), want.n, len(want.dense), len(want.sparse))
		}
	}
	for _, frames := range []int64{1, 4097, 32768} {
		mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: frames * 4096})
		k := New(mem, new(sim.Clock), sim.DECstation5000(), Config{})
		same("boot segment", &k.boot.pages, perPage(frames))
		for pfn := range frames {
			if k.frameOwner[pfn] != k.boot.id || k.framePage[pfn] != pfn {
				t.Fatalf("%d frames: frame %d recorded at segment %d page %d, want %d page %d",
					frames, pfn, k.frameOwner[pfn], k.framePage[pfn], k.boot.id, pfn)
			}
		}
	}
	var past pageStore
	past.identityRun(pageStoreDenseMax + 3)
	same("identityRun past the dense cap", &past, perPage(pageStoreDenseMax+3))
}
