package kernel

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// rejectFixture is a kernel with one segment per shape the rejection table
// needs. Pages of base hold boot frames of the same number, so base pages
// 0..15 are a physically contiguous run and 20..23 (boot 40,42,44,46) are
// not.
type rejectFixture struct {
	k    *Kernel
	base *Segment // 1 frame/page: pages 0..15 and 20..23 present
	busy *Segment // 1 frame/page: page 0 present
	big  *Segment // 4 frames/page: page 0 present
	gone *Segment // deleted
}

func newRejectFixture(t *testing.T) *rejectFixture {
	t.Helper()
	k := newTestKernel(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mk := func(name string, fpp int) *Segment {
		s, err := k.CreateSegment(name, fpp)
		must(err)
		return s
	}
	fx := &rejectFixture{k: k, base: mk("base", 1), busy: mk("busy", 1), big: mk("big", 4), gone: mk("gone", 1)}
	boot := k.BootSegment()
	must(k.MigratePages(SystemCred, boot, fx.base, 0, 0, 16, FlagRW, 0))
	for i, p := range []int64{40, 42, 44, 46} {
		must(k.MigratePages(SystemCred, boot, fx.base, p, 20+int64(i), 1, FlagRW, 0))
	}
	must(k.MigratePages(SystemCred, boot, fx.busy, 100, 0, 1, FlagRW, 0))
	must(k.MigrateCoalesced(SystemCred, boot, fx.big, []PageRange{{Page: 32, To: 0, Pages: 1}}, FlagRW, 0))
	must(k.DeleteSegment(SystemCred, fx.gone))
	return fx
}

// state renders everything a rejected call must leave alone.
func (fx *rejectFixture) state() string {
	var b strings.Builder
	for _, s := range []*Segment{fx.k.BootSegment(), fx.base, fx.busy, fx.big} {
		fmt.Fprintf(&b, "%s:", s.Name())
		for _, p := range s.Pages() {
			flags, _ := s.Flags(p)
			fmt.Fprintf(&b, " %d=%d/%v", p, s.FrameAt(p).PFN(), flags)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// pageOp is one kernel page operation; spellings are the exported ways to
// call it. A spelling that takes a single range reports ok=false for a case
// it cannot express.
type pageOp struct {
	name      string
	calls     func(Stats) int64 // the operation's call counter
	entry     func(*Kernel) time.Duration
	spellings []opSpelling
}

type opSpelling struct {
	name string
	call func(k *Kernel, cred Cred, src, dst *Segment, rs []PageRange) (err error, ok bool)
}

// single adapts a one-range spelling.
func single(name string, call func(k *Kernel, cred Cred, src, dst *Segment, r PageRange) error) opSpelling {
	return opSpelling{name, func(k *Kernel, cred Cred, src, dst *Segment, rs []PageRange) (error, bool) {
		if len(rs) != 1 {
			return nil, false
		}
		return call(k, cred, src, dst, rs[0]), true
	}}
}

func batch(name string, call func(k *Kernel, cred Cred, src, dst *Segment, rs []PageRange) error) opSpelling {
	return opSpelling{name, func(k *Kernel, cred Cred, src, dst *Segment, rs []PageRange) (error, bool) {
		return call(k, cred, src, dst, rs), true
	}}
}

var (
	kernelCall = func(k *Kernel) time.Duration { return k.Cost().KernelCall }
	migrateOp  = pageOp{"migrate", func(s Stats) int64 { return s.MigrateCalls }, kernelCall, []opSpelling{
		single("MigratePages", func(k *Kernel, c Cred, src, dst *Segment, r PageRange) error {
			return k.MigratePages(c, src, dst, r.Page, r.To, r.Pages, FlagRW, 0)
		}),
		batch("MigratePagesBatch", func(k *Kernel, c Cred, src, dst *Segment, rs []PageRange) error {
			return k.MigratePagesBatch(c, src, dst, rs, FlagRW, 0)
		}),
	}}
	coalesceOp = pageOp{"coalesce", func(s Stats) int64 { return s.MigrateCalls }, kernelCall, []opSpelling{
		batch("MigrateCoalesced", func(k *Kernel, c Cred, src, dst *Segment, rs []PageRange) error {
			return k.MigrateCoalesced(c, src, dst, rs, FlagRW, 0)
		}),
	}}
	splitOp = pageOp{"split", func(s Stats) int64 { return s.MigrateCalls }, kernelCall, []opSpelling{
		batch("MigrateSplit", func(k *Kernel, c Cred, src, dst *Segment, rs []PageRange) error {
			return k.MigrateSplit(c, src, dst, rs, FlagRW, 0)
		}),
	}}
	modifyOp = pageOp{"modify-flags", func(s Stats) int64 { return s.ModifyCalls },
		func(k *Kernel) time.Duration { return k.Cost().KernelCall + k.Cost().ModifyFlags }, []opSpelling{
			single("ModifyPageFlags", func(k *Kernel, c Cred, s, _ *Segment, r PageRange) error {
				return k.ModifyPageFlags(c, s, r.Page, r.Pages, 0, FlagWrite)
			}),
			batch("ModifyPageFlagsBatch", func(k *Kernel, c Cred, s, _ *Segment, rs []PageRange) error {
				return k.ModifyPageFlagsBatch(c, s, rs, 0, FlagWrite)
			}),
		}}
	getAttrOp = pageOp{"get-attributes", func(s Stats) int64 { return s.GetAttrCalls }, kernelCall, []opSpelling{
		single("GetPageAttributes", func(k *Kernel, _ Cred, s, _ *Segment, r PageRange) error {
			_, err := k.GetPageAttributes(s, r.Page, r.Pages)
			return err
		}),
		{"GetPageAttribute", func(k *Kernel, _ Cred, s, _ *Segment, rs []PageRange) (error, bool) {
			if len(rs) != 1 || rs[0].Pages != 1 {
				return nil, false
			}
			_, err := k.GetPageAttribute(s, rs[0].Page)
			return err, true
		}},
		batch("GetPageAttributesBatch", func(k *Kernel, _ Cred, s, _ *Segment, rs []PageRange) error {
			var pages []int64
			for _, r := range rs {
				for i := int64(0); i < r.Pages; i++ {
					pages = append(pages, r.Page+i)
				}
			}
			_, err := k.GetPageAttributesBatch(s, pages, nil)
			return err
		}),
	}}
)

// TestRejectedCalls drives every spelling of every page operation through
// every way it can be refused: the typed error is the one the precedence
// rule in batch.go names, nothing moves, the call counter ticks once and
// the clock advances by the entry charge alone.
func TestRejectedCalls(t *testing.T) {
	type rejection struct {
		name     string
		op       pageOp
		cred     Cred
		src, dst func(*rejectFixture) *Segment
		ranges   []PageRange
		want     error
	}
	boot := func(fx *rejectFixture) *Segment { return fx.k.BootSegment() }
	base := func(fx *rejectFixture) *Segment { return fx.base }
	busy := func(fx *rejectFixture) *Segment { return fx.busy }
	big := func(fx *rejectFixture) *Segment { return fx.big }
	gone := func(fx *rejectFixture) *Segment { return fx.gone }
	one := func(page, to, n int64) []PageRange { return []PageRange{{Page: page, To: to, Pages: n}} }
	cases := []rejection{
		{"deleted source", migrateOp, SystemCred, gone, busy, one(0, 5, 1), ErrNoSuchSegment},
		{"deleted beats page-size mismatch", migrateOp, SystemCred, gone, big, one(0, 5, 1), ErrNoSuchSegment},
		{"unprivileged on restricted", migrateOp, AppCred, boot, busy, one(50, 5, 1), ErrNotPrivileged},
		{"unprivileged beats page-size mismatch", migrateOp, AppCred, boot, big, one(50, 5, 1), ErrNotPrivileged},
		{"empty range", migrateOp, SystemCred, base, busy, one(0, 5, 0), ErrBadRange},
		{"negative destination", migrateOp, SystemCred, base, busy, one(0, -1, 1), ErrBadRange},
		{"bad range beats page-size mismatch", migrateOp, SystemCred, base, big, one(0, 5, 0), ErrBadRange},
		{"page-size mismatch", migrateOp, SystemCred, base, big, one(0, 5, 1), ErrPageSizeMismatch},
		{"absent source", migrateOp, SystemCred, base, busy, one(30, 5, 1), ErrPageNotPresent},
		{"busy destination", migrateOp, SystemCred, base, busy, one(0, 0, 1), ErrPageBusy},
		{"duplicate source in batch", migrateOp, SystemCred, base, busy,
			[]PageRange{{Page: 3, To: 9, Pages: 1}, {Page: 3, To: 5, Pages: 1}}, ErrBadRange},
		{"duplicate destination in batch", migrateOp, SystemCred, base, busy,
			[]PageRange{{Page: 3, To: 5, Pages: 2}, {Page: 1, To: 6, Pages: 1}}, ErrBadRange},

		{"deleted destination", coalesceOp, SystemCred, base, gone, one(0, 1, 1), ErrNoSuchSegment},
		{"unprivileged on restricted", coalesceOp, AppCred, boot, big, one(48, 1, 1), ErrNotPrivileged},
		{"empty range", coalesceOp, SystemCred, base, big, one(0, 1, 0), ErrBadRange},
		{"page-size mismatch", coalesceOp, SystemCred, big, big, one(0, 1, 1), ErrPageSizeMismatch},
		{"absent source", coalesceOp, SystemCred, base, big, one(28, 1, 1), ErrPageNotPresent},
		{"non-contiguous source", coalesceOp, SystemCred, base, big, one(20, 1, 1), ErrNotContiguous},
		{"busy destination", coalesceOp, SystemCred, base, big, one(0, 0, 1), ErrPageBusy},
		{"duplicate source in batch", coalesceOp, SystemCred, base, big,
			[]PageRange{{Page: 4, To: 2, Pages: 1}, {Page: 4, To: 1, Pages: 1}}, ErrBadRange},

		{"deleted source", splitOp, SystemCred, gone, busy, one(0, 4, 1), ErrNoSuchSegment},
		{"unprivileged on restricted", splitOp, AppCred, big, boot, one(0, 300, 1), ErrNotPrivileged},
		{"negative source", splitOp, SystemCred, big, busy, one(-1, 4, 1), ErrBadRange},
		{"page-size mismatch", splitOp, SystemCred, big, big, one(0, 4, 1), ErrPageSizeMismatch},
		{"absent source", splitOp, SystemCred, big, busy, one(1, 4, 1), ErrPageNotPresent},
		{"busy destination", splitOp, SystemCred, big, busy, one(0, 0, 1), ErrPageBusy},
		{"duplicate source in batch", splitOp, SystemCred, big, busy,
			[]PageRange{{Page: 0, To: 8, Pages: 1}, {Page: 0, To: 4, Pages: 1}}, ErrBadRange},

		{"deleted segment", modifyOp, SystemCred, gone, nil, one(0, 0, 1), ErrNoSuchSegment},
		{"unprivileged on restricted", modifyOp, AppCred, boot, nil, one(50, 0, 1), ErrNotPrivileged},
		{"empty range", modifyOp, SystemCred, base, nil, one(0, 0, 0), ErrBadRange},
		{"absent page", modifyOp, SystemCred, base, nil, one(15, 0, 2), ErrPageNotPresent},
		{"absent page in second range", modifyOp, SystemCred, base, nil,
			[]PageRange{{Page: 0, Pages: 2}, {Page: 30, Pages: 1}}, ErrPageNotPresent},

		{"deleted segment", getAttrOp, SystemCred, gone, nil, one(0, 0, 1), ErrNoSuchSegment},
		{"negative page", getAttrOp, SystemCred, base, nil, one(-1, 0, 1), ErrBadRange},
		{"empty range", getAttrOp, SystemCred, base, nil, one(0, 0, 0), ErrBadRange},
	}
	for _, tc := range cases {
		for _, sp := range tc.op.spellings {
			fx := newRejectFixture(t)
			var dst *Segment
			if tc.dst != nil {
				dst = tc.dst(fx)
			}
			before, clock, stats := fx.state(), fx.k.Clock().Now(), fx.k.Stats()
			err, ok := sp.call(fx.k, tc.cred, tc.src(fx), dst, tc.ranges)
			if !ok {
				continue
			}
			name := fmt.Sprintf("%s/%s/%s", tc.op.name, tc.name, sp.name)
			if sp.name == "GetPageAttributesBatch" && tc.name == "empty range" {
				// A batch of no pages is not a call: free, and not an error.
				if err != nil || fx.k.Clock().Now() != clock {
					t.Errorf("%s: err %v, clock moved %v; want a free no-op", name, err, fx.k.Clock().Now()-clock)
				}
				continue
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: err = %v, want %v", name, err, tc.want)
			}
			if got := fx.state(); got != before {
				t.Errorf("%s: rejected call changed state:\n%s\nwas:\n%s", name, got, before)
			}
			if err := fx.k.CheckFrameConservation(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if got, want := fx.k.Clock().Now()-clock, tc.op.entry(fx.k); got != want {
				t.Errorf("%s: clock advanced %v, want the entry charge %v", name, got, want)
			}
			after := fx.k.Stats()
			if got := tc.op.calls(after) - tc.op.calls(stats); got != 1 {
				t.Errorf("%s: call counter ticked %d times, want 1", name, got)
			}
			if after.MigratedPages != stats.MigratedPages {
				t.Errorf("%s: MigratedPages moved on a rejected call", name)
			}
		}
	}
}

// TestGetPageAttributeAllocFree: the single-page spelling goes through the
// shared body without touching the allocator — reclaim loops poll with it.
func TestGetPageAttributeAllocFree(t *testing.T) {
	fx := newRejectFixture(t)
	if n := testing.AllocsPerRun(100, func() {
		if a, err := fx.k.GetPageAttribute(fx.base, 3); err != nil || !a.Present || a.PFN != 3 {
			t.Fatalf("GetPageAttribute = %+v, %v", a, err)
		}
	}); n != 0 {
		t.Fatalf("GetPageAttribute allocates %v times per call", n)
	}
}
