package kernel

import (
	"errors"
	"testing"
	"time"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

func TestCoalesceRanges(t *testing.T) {
	cases := []struct {
		name     string
		src, dst []int64
		want     []PageRange
	}{
		{"empty", nil, nil, nil},
		{"single", []int64{5}, []int64{9}, []PageRange{{Page: 5, To: 9, Pages: 1}}},
		{"one run", []int64{3, 4, 5}, []int64{10, 11, 12}, []PageRange{{Page: 3, To: 10, Pages: 3}}},
		{
			"src gap splits",
			[]int64{3, 4, 8}, []int64{10, 11, 12},
			[]PageRange{{Page: 3, To: 10, Pages: 2}, {Page: 8, To: 12, Pages: 1}},
		},
		{
			"dst gap splits",
			[]int64{3, 4, 5}, []int64{10, 11, 20},
			[]PageRange{{Page: 3, To: 10, Pages: 2}, {Page: 5, To: 20, Pages: 1}},
		},
		{
			"descending never coalesces",
			[]int64{5, 4}, []int64{9, 8},
			[]PageRange{{Page: 5, To: 9, Pages: 1}, {Page: 4, To: 8, Pages: 1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := CoalesceRanges(tc.src, tc.dst)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("range %d: got %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestBatchMigrateCostSingle pins the n=1 equivalence that keeps Tables 1
// and 3 unchanged: a one-page batch charges exactly what the unbatched
// MigratePages charges, and moves the same state.
func TestBatchMigrateCostSingle(t *testing.T) {
	run := func(batched bool) (time.Duration, *Kernel, *Segment) {
		k := newTestKernel(t)
		seg, err := k.CreateSegment("data", 1)
		if err != nil {
			t.Fatal(err)
		}
		before := k.Clock().Now()
		if batched {
			err = k.MigratePagesBatch(SystemCred, k.BootSegment(), seg,
				[]PageRange{{Page: 7, To: 0, Pages: 1}}, FlagRW, 0)
		} else {
			err = k.MigratePages(SystemCred, k.BootSegment(), seg, 7, 0, 1, FlagRW, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		return k.Clock().Now() - before, k, seg
	}
	batchCost, kb, segB := run(true)
	plainCost, kp, segP := run(false)
	if batchCost != plainCost {
		t.Fatalf("single-page batch cost %v != MigratePages cost %v", batchCost, plainCost)
	}
	if !segB.HasPage(0) || !segP.HasPage(0) {
		t.Fatal("page not migrated")
	}
	sb, sp := kb.Stats(), kp.Stats()
	if sb.MigrateCalls != sp.MigrateCalls || sb.MigratedPages != sp.MigratedPages {
		t.Fatalf("stats diverge: batch %+v plain %+v", sb, sp)
	}
}

// TestBatchMigrateCostMany pins the batched cost model: one kernel call for
// the whole batch plus the per-page migrate and mapping work, against
// n kernel calls on the per-page path.
func TestBatchMigrateCostMany(t *testing.T) {
	const n = 16
	k := newTestKernel(t)
	seg, err := k.CreateSegment("data", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.DECstation5000()
	before := k.Clock().Now()
	if err := k.MigratePagesBatch(SystemCred, k.BootSegment(), seg,
		[]PageRange{{Page: 0, To: 0, Pages: n}}, FlagRW, 0); err != nil {
		t.Fatal(err)
	}
	got := k.Clock().Now() - before
	want := c.KernelCall + n*(c.MigratePage+c.MappingUpdate)
	if got != want {
		t.Fatalf("batched cost = %v, want %v", got, want)
	}
	perPage := n * (c.KernelCall + c.MigratePage + c.MappingUpdate)
	if got >= perPage {
		t.Fatalf("batch %v not cheaper than per-page %v", got, perPage)
	}
}

// TestBatchMigrateAllOrNothing: a batch whose later range fails validation
// must move no pages at all.
func TestBatchMigrateAllOrNothing(t *testing.T) {
	k := newTestKernel(t)
	seg, err := k.CreateSegment("data", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy destination page 5 so the second range collides.
	if err := k.MigratePages(SystemCred, k.BootSegment(), seg, 50, 5, 1, FlagRW, 0); err != nil {
		t.Fatal(err)
	}
	err = k.MigratePagesBatch(SystemCred, k.BootSegment(), seg, []PageRange{
		{Page: 0, To: 0, Pages: 2},
		{Page: 10, To: 5, Pages: 1}, // dst busy
	}, FlagRW, 0)
	if !errors.Is(err, ErrPageBusy) {
		t.Fatalf("err = %v, want ErrPageBusy", err)
	}
	for _, p := range []int64{0, 1} {
		if seg.HasPage(p) {
			t.Fatalf("page %d migrated despite failed batch", p)
		}
	}
}

// TestBatchMigrateCrossRangeDup: two ranges of one batch naming the same
// destination slot must be rejected before any page moves.
func TestBatchMigrateCrossRangeDup(t *testing.T) {
	k := newTestKernel(t)
	seg, err := k.CreateSegment("data", 1)
	if err != nil {
		t.Fatal(err)
	}
	err = k.MigratePagesBatch(SystemCred, k.BootSegment(), seg, []PageRange{
		{Page: 0, To: 3, Pages: 1},
		{Page: 9, To: 3, Pages: 1},
	}, FlagRW, 0)
	if !errors.Is(err, ErrBadRange) {
		t.Fatalf("err = %v, want ErrBadRange", err)
	}
	if seg.PageCount() != 0 {
		t.Fatal("pages moved despite duplicate destination")
	}
}

// TestModifyFlagsBatchCost pins ModifyPageFlagsBatch's charges: one kernel
// call and one flag-modify cost per batch, one mapping update per page —
// and exact n=1 single-range equality with the unbatched call.
func TestModifyFlagsBatchCost(t *testing.T) {
	c := sim.DECstation5000()
	setup := func() (*Kernel, *Segment) {
		k := newTestKernel(t)
		seg, err := k.CreateSegment("data", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.MigratePages(SystemCred, k.BootSegment(), seg, 0, 0, 8, FlagRW, 0); err != nil {
			t.Fatal(err)
		}
		return k, seg
	}

	k, seg := setup()
	before := k.Clock().Now()
	if err := k.ModifyPageFlagsBatch(SystemCred, seg,
		[]PageRange{{Page: 0, To: 0, Pages: 1}}, 0, FlagRW); err != nil {
		t.Fatal(err)
	}
	batched := k.Clock().Now() - before

	k2, seg2 := setup()
	before = k2.Clock().Now()
	if err := k2.ModifyPageFlags(SystemCred, seg2, 0, 1, 0, FlagRW); err != nil {
		t.Fatal(err)
	}
	if plain := k2.Clock().Now() - before; batched != plain {
		t.Fatalf("single-page flags batch cost %v != ModifyPageFlags cost %v", batched, plain)
	}

	k3, seg3 := setup()
	before = k3.Clock().Now()
	if err := k3.ModifyPageFlagsBatch(SystemCred, seg3, []PageRange{
		{Page: 0, To: 0, Pages: 3},
		{Page: 5, To: 5, Pages: 2},
	}, 0, FlagRW); err != nil {
		t.Fatal(err)
	}
	got := k3.Clock().Now() - before
	if want := c.KernelCall + c.ModifyFlags + 5*c.MappingUpdate; got != want {
		t.Fatalf("multi-range flags batch cost = %v, want %v", got, want)
	}
	for _, p := range []int64{0, 1, 2, 5, 6} {
		if f, _ := seg3.Flags(p); f&FlagRW != 0 {
			t.Fatalf("page %d still RW", p)
		}
	}
}

// benchKernel builds a larger machine for the migrate benchmarks.
func benchKernel(b *testing.B) (*Kernel, *Segment) {
	b.Helper()
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 8 << 20})
	var clock sim.Clock
	k := New(mem, &clock, sim.DECstation5000(), Config{})
	seg, err := k.CreateSegment("bench", 1)
	if err != nil {
		b.Fatal(err)
	}
	return k, seg
}

// BenchmarkBatchMigrate moves 64 pages per op through one batched call —
// the wall-clock half of the batching story (the virtual-cost half is
// pinned by the cost tests above); scripts/check.sh smoke-runs it.
func BenchmarkBatchMigrate(b *testing.B) {
	k, seg := benchKernel(b)
	fwd := []PageRange{{Page: 0, To: 0, Pages: 64}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.MigratePagesBatch(SystemCred, k.BootSegment(), seg, fwd, FlagRW, 0); err != nil {
			b.Fatal(err)
		}
		if err := k.MigratePagesBatch(SystemCred, seg, k.BootSegment(), fwd, 0, FlagRW); err != nil {
			b.Fatal(err)
		}
	}
}
