package kernel

import (
	"errors"
	"testing"
	"time"

	"epcm/internal/sim"
)

// newSuperKernel is newTestKernel with the superpage plane on.
func newSuperKernel(t *testing.T) *Kernel {
	t.Helper()
	return newTestKernelWith(Config{Superpages: true})
}

// fillAligned moves n boot pages starting at boot page n*slot into seg at
// base. Boot page i holds PFN i, so choosing slot boundaries that are
// multiples of n yields naturally aligned contiguous frame runs.
func fillAligned(t *testing.T, k *Kernel, seg *Segment, bootPage, base, n int64) {
	t.Helper()
	if err := k.MigratePages(SystemCred, k.BootSegment(), seg, bootPage, base, n, FlagRW, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPromoteExtentValidation(t *testing.T) {
	t.Parallel()
	// Plane off: every promotion refuses.
	off := newTestKernel(t)
	seg, _ := off.CreateSegment("data", 1)
	fillAligned(t, off, seg, 16, 0, 16)
	if err := off.PromoteExtent(AppCred, seg, 0, 4); !errors.Is(err, ErrSuperpagesOff) {
		t.Fatalf("superpages off: err = %v", err)
	}
	k := newSuperKernel(t)
	seg, _ = k.CreateSegment("data", 1)
	fillAligned(t, k, seg, 16, 0, 16)
	if err := k.PromoteExtent(AppCred, seg, 0, 0); !errors.Is(err, ErrBadRange) {
		t.Fatalf("order 0: err = %v", err)
	}
	if err := k.PromoteExtent(AppCred, seg, 0, MaxExtentOrder+1); !errors.Is(err, ErrBadRange) {
		t.Fatalf("order too big: err = %v", err)
	}
	if err := k.PromoteExtent(AppCred, seg, 8, 4); !errors.Is(err, ErrBadRange) {
		t.Fatalf("unaligned base: err = %v", err)
	}
	if err := k.PromoteExtent(AppCred, seg, 16, 4); !errors.Is(err, ErrPageNotPresent) {
		t.Fatalf("absent pages: err = %v", err)
	}
	if err := k.PromoteExtent(AppCred, seg, 0, 4); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := k.PromoteExtent(AppCred, seg, 0, 4); err != nil {
		t.Fatalf("idempotent re-promote: %v", err)
	}
	if err := k.PromoteExtent(AppCred, seg, 0, 3); !errors.Is(err, ErrOverlap) {
		t.Fatalf("same base, different order: err = %v", err)
	}
	if err := k.PromoteExtent(AppCred, seg, 8, 3); !errors.Is(err, ErrOverlap) {
		t.Fatalf("covered sub-extent: err = %v", err)
	}
	if base, order, ok := seg.ExtentAt(13); !ok || base != 0 || order != 4 {
		t.Fatalf("ExtentAt(13) = %d,%d,%v; want 0,4,true", base, order, ok)
	}
	if n := seg.ExtentCount(); n != 1 {
		t.Fatalf("ExtentCount = %d, want 1", n)
	}
}

func TestPromoteExtentRequiresAlignedContiguousFrames(t *testing.T) {
	t.Parallel()
	k := newSuperKernel(t)
	// PFNs 17..32: contiguous but the run does not start on a 16-aligned PFN.
	unaligned, _ := k.CreateSegment("unaligned", 1)
	fillAligned(t, k, unaligned, 17, 0, 16)
	if err := k.PromoteExtent(AppCred, unaligned, 0, 4); !errors.Is(err, ErrNotContiguous) {
		t.Fatalf("unaligned frame run: err = %v", err)
	}
	// PFNs 48..55 then 80..87: aligned start, gap in the middle.
	gap, _ := k.CreateSegment("gap", 1)
	fillAligned(t, k, gap, 48, 0, 8)
	fillAligned(t, k, gap, 80, 8, 8)
	if err := k.PromoteExtent(AppCred, gap, 0, 4); !errors.Is(err, ErrNotContiguous) {
		t.Fatalf("discontiguous frames: err = %v", err)
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// Promotion charges one kernel call plus one SuperpageOp regardless of
// order; demotion charges the SuperpageOp only when an extent was live.
func TestPromoteDemoteCharges(t *testing.T) {
	t.Parallel()
	k := newSuperKernel(t)
	c := sim.DECstation5000()
	seg, _ := k.CreateSegment("data", 1)
	fillAligned(t, k, seg, 64, 0, 64)
	for _, order := range []int{2, 6} {
		before := k.Clock().Now()
		if err := k.PromoteExtent(AppCred, seg, 0, order); err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if got, want := k.Clock().Now()-before, c.KernelCall+c.SuperpageOp; got != want {
			t.Fatalf("promote order %d charged %v, want %v", order, got, want)
		}
		before = k.Clock().Now()
		if err := k.DemoteExtent(AppCred, seg, 0); err != nil {
			t.Fatal(err)
		}
		if got, want := k.Clock().Now()-before, c.KernelCall+c.SuperpageOp; got != want {
			t.Fatalf("demote order %d charged %v, want %v", order, got, want)
		}
		before = k.Clock().Now()
		if err := k.DemoteExtent(AppCred, seg, 0); err != nil {
			t.Fatal(err)
		}
		if got := k.Clock().Now() - before; got != c.KernelCall {
			t.Fatalf("idempotent demote charged %v, want %v", got, c.KernelCall)
		}
	}
	s := k.Stats()
	if s.ExtentPromotions != 2 || s.ExtentDemotions != 2 || s.SuperpageOps != 4 {
		t.Fatalf("stats = %d promotions, %d demotions, %d superpage ops; want 2,2,4",
			s.ExtentPromotions, s.ExtentDemotions, s.SuperpageOps)
	}
}

// An aligned, contiguity-qualifying batch range moves as one extent: one
// SuperpageOp replaces the 2^order per-page charges, the destination gains
// a live extent, and every covered page is answered by the single span
// entry (the fast path installs no per-page cache fills).
func TestBatchMigrateExtentFastPath(t *testing.T) {
	t.Parallel()
	k := newSuperKernel(t)
	c := sim.DECstation5000()
	seg, _ := k.CreateSegment("data", 1)
	before := k.Clock().Now()
	if err := k.MigratePagesBatch(SystemCred, k.BootSegment(), seg,
		[]PageRange{{Page: 16, To: 0, Pages: 16}}, FlagRW, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := k.Clock().Now()-before, c.KernelCall+c.SuperpageOp; got != want {
		t.Fatalf("extent batch charged %v, want %v", got, want)
	}
	if n := seg.ExtentCount(); n != 1 {
		t.Fatalf("ExtentCount = %d, want 1", n)
	}
	for p := int64(0); p < 16; p++ {
		if !seg.HasPage(p) {
			t.Fatalf("page %d absent after extent move", p)
		}
		if !k.table.lookup(mapKey{seg.ID(), p}) {
			t.Fatalf("page %d: span entry did not answer the table lookup", p)
		}
	}
	s := k.Stats()
	if s.ExtentPromotions != 1 || s.SuperpageOps != 1 || s.MigratedPages != 16 {
		t.Fatalf("stats = %+v", s)
	}
	// Demote: the span entry is withdrawn and covered pages miss in the
	// caches (their mappings survive in the segment page index).
	if err := k.DemoteExtent(AppCred, seg, 0); err != nil {
		t.Fatal(err)
	}
	if k.table.lookup(mapKey{seg.ID(), 5}) {
		t.Fatal("span entry survived demotion")
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// Ranges that do not qualify — unaligned destination, non-power-of-two
// length, discontiguous frames, superpages off — charge the per-page total,
// byte-for-byte what the pre-extent batch charged. So does a qualifying
// range passed through the single-range MigratePages, which never applies a
// range whole.
func TestBatchMigrateExtentFallbacks(t *testing.T) {
	t.Parallel()
	c := sim.DECstation5000()
	perPage := func(n int64) time.Duration {
		return c.KernelCall + time.Duration(n)*(c.MigratePage+c.MappingUpdate)
	}
	cases := []struct {
		name   string
		super  bool
		single bool // through MigratePages rather than MigratePagesBatch
		r      PageRange
	}{
		{"superpages off", false, false, PageRange{Page: 16, To: 0, Pages: 16}},
		{"unaligned destination", true, false, PageRange{Page: 16, To: 8, Pages: 16}},
		{"non-power-of-two", true, false, PageRange{Page: 16, To: 0, Pages: 12}},
		{"single page", true, false, PageRange{Page: 16, To: 0, Pages: 1}},
		{"single-range spelling", true, true, PageRange{Page: 16, To: 0, Pages: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernelWith(Config{Superpages: tc.super})
			seg, _ := k.CreateSegment("data", 1)
			before := k.Clock().Now()
			var err error
			if tc.single {
				err = k.MigratePages(SystemCred, k.BootSegment(), seg, tc.r.Page, tc.r.To, tc.r.Pages, FlagRW, 0)
			} else {
				err = k.MigratePagesBatch(SystemCred, k.BootSegment(), seg, []PageRange{tc.r}, FlagRW, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, want := k.Clock().Now()-before, perPage(tc.r.Pages); got != want {
				t.Fatalf("charged %v, want per-page %v", got, want)
			}
			if n := seg.ExtentCount(); n != 0 {
				t.Fatalf("ExtentCount = %d, want 0", n)
			}
		})
	}
	// Discontiguous source frames with superpages on: assemble a segment
	// whose pages 0..15 are backed by a non-contiguous run, then move them.
	k := newSuperKernel(t)
	staging, _ := k.CreateSegment("staging", 1)
	fillAligned(t, k, staging, 32, 0, 8)
	fillAligned(t, k, staging, 48, 8, 8)
	seg, _ := k.CreateSegment("data", 1)
	before := k.Clock().Now()
	if err := k.MigratePagesBatch(AppCred, staging, seg,
		[]PageRange{{Page: 0, To: 0, Pages: 16}}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := k.Clock().Now()-before, perPage(16); got != want {
		t.Fatalf("discontiguous frames charged %v, want per-page %v", got, want)
	}
	if n := seg.ExtentCount(); n != 0 {
		t.Fatalf("ExtentCount = %d, want 0", n)
	}
}

// Any per-page removal of a covered page demotes the covering extent first,
// on every mutation path, so a span entry can never advertise an absent
// page.
func TestPerPageRemovalDemotesCoveringExtent(t *testing.T) {
	t.Parallel()
	promote := func(t *testing.T, k *Kernel) (*Segment, *Segment) {
		t.Helper()
		seg, _ := k.CreateSegment("data", 1)
		fillAligned(t, k, seg, 16, 0, 16)
		if err := k.PromoteExtent(AppCred, seg, 0, 4); err != nil {
			t.Fatal(err)
		}
		other, _ := k.CreateSegment("other", 1)
		return seg, other
	}
	t.Run("migrate", func(t *testing.T) {
		k := newSuperKernel(t)
		seg, other := promote(t, k)
		if err := k.MigratePages(AppCred, seg, other, 5, 0, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
		if n := seg.ExtentCount(); n != 0 {
			t.Fatalf("ExtentCount = %d after per-page migrate out", n)
		}
		// The remaining pages' per-page entries (installed by the setup
		// migration) survive; only the wide translation is withdrawn.
		if s := k.Stats(); s.ExtentDemotions != 1 {
			t.Fatalf("ExtentDemotions = %d, want 1", s.ExtentDemotions)
		}
	})
	t.Run("migrate batch", func(t *testing.T) {
		k := newSuperKernel(t)
		seg, other := promote(t, k)
		if err := k.MigratePagesBatch(AppCred, seg, other,
			[]PageRange{{Page: 5, To: 0, Pages: 1}}, 0, 0); err != nil {
			t.Fatal(err)
		}
		if n := seg.ExtentCount(); n != 0 {
			t.Fatalf("ExtentCount = %d after batched migrate out", n)
		}
	})
	t.Run("coalesce", func(t *testing.T) {
		k := newSuperKernel(t)
		seg, _ := promote(t, k)
		big, _ := k.CreateSegment("big", 4)
		if err := k.MigrateCoalesced(AppCred, seg, big, []PageRange{{Page: 0, To: 0, Pages: 2}}, 0, 0); err != nil {
			t.Fatal(err)
		}
		if n := seg.ExtentCount(); n != 0 {
			t.Fatalf("ExtentCount = %d after coalesce", n)
		}
		if err := k.CheckFrameConservation(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("delete segment", func(t *testing.T) {
		k := newSuperKernel(t)
		seg, _ := promote(t, k)
		if err := k.DeleteSegment(SystemCred, seg); err != nil {
			t.Fatal(err)
		}
		if err := k.CheckFrameConservation(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("manager handoff", func(t *testing.T) {
		k := newSuperKernel(t)
		seg, _ := promote(t, k)
		m := newTestManager(t, k, 16, DeliverSeparateProcess)
		k.SetSegmentManager(seg, m)
		if n := seg.ExtentCount(); n != 0 {
			t.Fatalf("ExtentCount = %d after manager handoff", n)
		}
	})
}

// A flags batch over exactly one promoted extent is one superpage
// shootdown; anything else keeps the per-page charge, the single-range
// ModifyPageFlags over that same extent included. Flags always land on
// every base page either way.
func TestModifyFlagsBatchExtentCharge(t *testing.T) {
	t.Parallel()
	k := newSuperKernel(t)
	c := sim.DECstation5000()
	seg, _ := k.CreateSegment("data", 1)
	fillAligned(t, k, seg, 32, 0, 32)
	if err := k.PromoteExtent(AppCred, seg, 0, 4); err != nil {
		t.Fatal(err)
	}
	before := k.Clock().Now()
	if err := k.ModifyPageFlagsBatch(AppCred, seg,
		[]PageRange{{Page: 0, Pages: 16}}, 0, FlagReferenced); err != nil {
		t.Fatal(err)
	}
	if got, want := k.Clock().Now()-before, c.KernelCall+c.ModifyFlags+c.SuperpageOp; got != want {
		t.Fatalf("extent flags batch charged %v, want %v", got, want)
	}
	for p := int64(0); p < 16; p++ {
		if flags, ok := seg.Flags(p); !ok || flags&FlagReferenced != 0 {
			t.Fatalf("page %d flags %v: referenced bit survived", p, flags)
		}
	}
	if n := seg.ExtentCount(); n != 1 {
		t.Fatal("flags change demoted the extent; pages are all still present")
	}
	// The single-range spelling over exactly the extent: per-page charge.
	before = k.Clock().Now()
	if err := k.ModifyPageFlags(AppCred, seg, 0, 16, FlagReferenced, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := k.Clock().Now()-before, c.KernelCall+c.ModifyFlags+16*c.MappingUpdate; got != want {
		t.Fatalf("single-range flags call over the extent charged %v, want %v", got, want)
	}
	if flags, _ := seg.Flags(9); flags&FlagReferenced == 0 || seg.ExtentCount() != 1 {
		t.Fatalf("page 9 flags %v, %d extents after the single-range call; want referenced, 1", flags, seg.ExtentCount())
	}
	// Half the extent: not an exact match, per-page charge.
	before = k.Clock().Now()
	if err := k.ModifyPageFlagsBatch(AppCred, seg,
		[]PageRange{{Page: 0, Pages: 8}}, FlagReferenced, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := k.Clock().Now()-before, c.KernelCall+c.ModifyFlags+8*c.MappingUpdate; got != want {
		t.Fatalf("partial-extent flags batch charged %v, want %v", got, want)
	}
	// Unpromoted pages: per-page charge.
	before = k.Clock().Now()
	if err := k.ModifyPageFlagsBatch(AppCred, seg,
		[]PageRange{{Page: 16, Pages: 16}}, FlagReferenced, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := k.Clock().Now()-before, c.KernelCall+c.ModifyFlags+16*c.MappingUpdate; got != want {
		t.Fatalf("unpromoted flags batch charged %v, want %v", got, want)
	}
}

// A coalesce charges one kernel call plus the per-base-page increments:
// one range, several ranges (the kernel call amortized), and an empty batch,
// which is not a call at all.
func TestMigrateCoalescedBatchCost(t *testing.T) {
	c := sim.DECstation5000()
	perBase := c.MigratePage + c.MappingUpdate
	k := newTestKernel(t)
	small, _ := k.CreateSegment("small", 1)
	big, _ := k.CreateSegment("big", 4)
	fillAligned(t, k, small, 32, 0, 24)
	before := k.Clock().Now()
	if err := k.MigrateCoalesced(AppCred, small, big, []PageRange{{Page: 0, To: 0, Pages: 2}}, FlagRW, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := k.Clock().Now()-before, c.KernelCall+8*perBase; got != want {
		t.Fatalf("one-range coalesce charged %v, want %v", got, want)
	}

	// Two ranges in one call: one KernelCall for 2+1 large pages.
	before = k.Clock().Now()
	if err := k.MigrateCoalesced(AppCred, small, big,
		[]PageRange{{Page: 8, To: 2, Pages: 2}, {Page: 16, To: 8, Pages: 1}}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := k.Clock().Now()-before, c.KernelCall+12*perBase; got != want {
		t.Fatalf("two-range coalesce charged %v, want %v", got, want)
	}
	if big.PageCount() != 5 || small.PageCount() != 4 {
		t.Fatalf("big=%d small=%d pages", big.PageCount(), small.PageCount())
	}

	calls, before := k.Stats().MigrateCalls, k.Clock().Now()
	if err := k.MigrateCoalesced(AppCred, small, big, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	if k.Clock().Now() != before || k.Stats().MigrateCalls != calls {
		t.Fatal("an empty coalesce batch was charged as a call")
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// A split charges like the coalesce it inverts, and a bad later range
// leaves the first untouched.
func TestMigrateSplitBatchCost(t *testing.T) {
	c := sim.DECstation5000()
	k := newTestKernel(t)
	small, _ := k.CreateSegment("small", 1)
	big, _ := k.CreateSegment("big", 4)
	fillAligned(t, k, small, 32, 0, 8)
	if err := k.MigrateCoalesced(AppCred, small, big, []PageRange{{Page: 0, To: 0, Pages: 2}}, 0, 0); err != nil {
		t.Fatal(err)
	}
	err := k.MigrateSplit(AppCred, big, small,
		[]PageRange{{Page: 0, To: 0, Pages: 1}, {Page: 9, To: 8, Pages: 1}}, 0, 0)
	if !errors.Is(err, ErrPageNotPresent) {
		t.Fatalf("err = %v, want ErrPageNotPresent", err)
	}
	if big.PageCount() != 2 {
		t.Fatal("failed split batch moved pages")
	}
	before := k.Clock().Now()
	if err := k.MigrateSplit(AppCred, big, small, []PageRange{{Page: 0, To: 0, Pages: 2}}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := k.Clock().Now()-before, c.KernelCall+8*(c.MigratePage+c.MappingUpdate); got != want {
		t.Fatalf("split charged %v, want %v", got, want)
	}
	if small.PageCount() != 8 || big.PageCount() != 0 {
		t.Fatalf("after split: small=%d big=%d pages", small.PageCount(), big.PageCount())
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}
