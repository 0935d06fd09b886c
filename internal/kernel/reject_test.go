package kernel

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// rejectFixture is a kernel with one segment per shape the rejection table
// needs. Pages of base hold boot frames of the same number.
type rejectFixture struct {
	k    *Kernel
	base *Segment // pages 0..15 present
	busy *Segment // page 0 present
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
	mk := func(name string) *Segment {
		s, err := k.CreateSegment(name, 1)
		must(err)
		return s
	}
	fx := &rejectFixture{k: k, base: mk("base"), busy: mk("busy"), gone: mk("gone")}
	boot := k.BootSegment()
	must(k.MigratePages(SystemCred, boot, fx.base, 0, 0, 16, FlagRW, 0))
	must(k.MigratePages(SystemCred, boot, fx.busy, 100, 0, 1, FlagRW, 0))
	must(k.DeleteSegment(SystemCred, fx.gone))
	return fx
}

// state renders everything a rejected call must leave alone.
func (fx *rejectFixture) state() string {
	var b strings.Builder
	for _, s := range []*Segment{fx.k.BootSegment(), fx.base, fx.busy} {
		fmt.Fprintf(&b, "%s: %d bindings", s.Name(), len(s.bindings))
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
	calls     func(Stats) int64 // the operation's call counter; nil if it has none
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
	modifyOp = pageOp{"modify-flags", func(s Stats) int64 { return s.ModifyCalls },
		func(k *Kernel) time.Duration { return k.Cost().KernelCall + k.Cost().ModifyFlags }, []opSpelling{
			single("ModifyPageFlags", func(k *Kernel, c Cred, s, _ *Segment, r PageRange) error {
				return k.ModifyPageFlags(c, s, r.Page, r.Pages, 0, FlagWrite)
			}),
			batch("ModifyPageFlagsBatch", func(k *Kernel, c Cred, s, _ *Segment, rs []PageRange) error {
				return k.ModifyPageFlagsBatch(c, s, rs, 0, FlagWrite)
			}),
		}}
	// bindOp's range is [Page,+Pages) of the source bound to the
	// destination at To.
	bindOp = pageOp{"bind", nil, kernelCall, []opSpelling{
		single("BindRegion", func(k *Kernel, c Cred, src, dst *Segment, r PageRange) error {
			return k.BindRegion(c, src, r.Page, r.Pages, dst, r.To, true)
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
// rule in batch.go names, nothing moves, the call counter (bind has none)
// ticks once and the clock advances by the entry charge alone.
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
	gone := func(fx *rejectFixture) *Segment { return fx.gone }
	one := func(page, to, n int64) []PageRange { return []PageRange{{Page: page, To: to, Pages: n}} }
	cases := []rejection{
		{"deleted source", migrateOp, SystemCred, gone, busy, one(0, 5, 1), ErrNoSuchSegment},
		{"deleted destination", migrateOp, SystemCred, base, gone, one(0, 1, 1), ErrNoSuchSegment},
		{"unprivileged on restricted", migrateOp, AppCred, boot, busy, one(50, 5, 1), ErrNotPrivileged},
		{"deleted beats unprivileged", migrateOp, AppCred, boot, gone, one(50, 5, 1), ErrNoSuchSegment},
		{"empty range", migrateOp, SystemCred, base, busy, one(0, 5, 0), ErrBadRange},
		{"negative destination", migrateOp, SystemCred, base, busy, one(0, -1, 1), ErrBadRange},
		{"unprivileged beats bad range", migrateOp, AppCred, boot, busy, one(50, 5, 0), ErrNotPrivileged},
		{"absent source", migrateOp, SystemCred, base, busy, one(30, 5, 1), ErrPageNotPresent},
		{"busy destination", migrateOp, SystemCred, base, busy, one(0, 0, 1), ErrPageBusy},
		{"duplicate source in batch", migrateOp, SystemCred, base, busy,
			[]PageRange{{Page: 3, To: 9, Pages: 1}, {Page: 3, To: 5, Pages: 1}}, ErrBadRange},
		{"duplicate destination in batch", migrateOp, SystemCred, base, busy,
			[]PageRange{{Page: 3, To: 5, Pages: 2}, {Page: 1, To: 6, Pages: 1}}, ErrBadRange},

		{"deleted segment", modifyOp, SystemCred, gone, nil, one(0, 0, 1), ErrNoSuchSegment},
		{"unprivileged on restricted", modifyOp, AppCred, boot, nil, one(50, 0, 1), ErrNotPrivileged},
		{"empty range", modifyOp, SystemCred, base, nil, one(0, 0, 0), ErrBadRange},
		{"absent page", modifyOp, SystemCred, base, nil, one(15, 0, 2), ErrPageNotPresent},
		{"absent page in second range", modifyOp, SystemCred, base, nil,
			[]PageRange{{Page: 0, Pages: 2}, {Page: 30, Pages: 1}}, ErrPageNotPresent},

		{"deleted segment", bindOp, SystemCred, gone, base, one(0, 0, 1), ErrNoSuchSegment},
		{"deleted target", bindOp, SystemCred, base, gone, one(20, 0, 1), ErrNoSuchSegment},
		{"unprivileged onto restricted", bindOp, AppCred, base, boot, one(20, 200, 1), ErrNotPrivileged},
		{"unprivileged on restricted", bindOp, AppCred, boot, base, one(20, 0, 1), ErrNotPrivileged},
		{"deleted beats unprivileged", bindOp, AppCred, gone, boot, one(0, 200, 1), ErrNoSuchSegment},
		{"unprivileged beats bad range", bindOp, AppCred, base, boot, one(20, 200, 0), ErrNotPrivileged},
		{"empty range", bindOp, SystemCred, base, busy, one(20, 0, 0), ErrBadRange},
		{"negative target", bindOp, SystemCred, base, busy, one(20, -1, 1), ErrBadRange},

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
			if tc.op.calls != nil {
				if got := tc.op.calls(after) - tc.op.calls(stats); got != 1 {
					t.Errorf("%s: call counter ticked %d times, want 1", name, got)
				}
			}
			if after.MigratedPages != stats.MigratedPages {
				t.Errorf("%s: MigratedPages moved on a rejected call", name)
			}
		}
	}
}

// TestUnprivilegedBindOfBootRefused: an application cannot bind the
// restricted boot segment copy-on-write. If it could, its first write would
// copy a free frame's bytes into its own page.
func TestUnprivilegedBindOfBootRefused(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 4, DeliverSameProcess)
	app, _ := k.CreateSegment("app", 1)
	k.SetSegmentManager(app, m)
	boot := k.BootSegment()
	boot.FrameAt(200).Data()[0] = 0x42
	if err := k.BindRegion(AppCred, app, 0, 1, boot, 200, true); !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("unprivileged bind of the boot segment: %v, want ErrNotPrivileged", err)
	}
	if len(app.bindings) != 0 {
		t.Fatalf("refused bind left %d bindings", len(app.bindings))
	}
	if err := k.Access(app, 0, Write); err != nil {
		t.Fatal(err)
	}
	if got := app.FrameAt(0).Data()[0]; got == 0x42 {
		t.Fatal("the application's page holds the boot frame's byte")
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
