package kernel

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

// newTestKernel builds a small machine: 256 frames of 4 KB.
func newTestKernel(t *testing.T) *Kernel {
	t.Helper()
	return newTestKernelWith(Config{})
}

func newTestKernelWith(cfg Config) *Kernel {
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 1 << 20, CacheColors: 8, Nodes: 2, StoreData: true})
	var clock sim.Clock
	return New(mem, &clock, sim.DECstation5000(), cfg)
}

// testManager is a minimal segment manager: it serves missing-page and
// copy-on-write faults by migrating the lowest page of its free-page
// segment into the faulting page, and protection faults by enabling the
// required access.
type testManager struct {
	t        *testing.T
	k        *Kernel
	free     *Segment
	delivery DeliveryMode
	faults   []Fault
	deleted  []*Segment
	noop     bool // if set, HandleFault does nothing (fault-loop tests)
	fill     func(f Fault, frame *phys.Frame)
}

func (m *testManager) ManagerName() string    { return "test-manager" }
func (m *testManager) Delivery() DeliveryMode { return m.delivery }

func (m *testManager) HandleFault(f Fault) error {
	m.faults = append(m.faults, f)
	if m.noop {
		return nil
	}
	if f.Kind == FaultProtection {
		need := FlagRead
		if f.Access == Write {
			need = FlagWrite
		}
		return m.k.ModifyPageFlags(AppCred, f.Seg, f.Page, 1, need, 0)
	}
	pages := m.free.Pages()
	if len(pages) == 0 {
		m.t.Fatal("test manager out of free pages")
	}
	src := pages[0]
	if m.fill != nil {
		m.fill(f, m.free.FrameAt(src))
	}
	return m.k.MigratePages(AppCred, m.free, f.Seg, src, f.Page, 1, FlagRW, 0)
}

func (m *testManager) SegmentDeleted(s *Segment) {
	m.deleted = append(m.deleted, s)
	// Reclaim the segment's frames into the free-page segment, stacking
	// them at fresh page numbers.
	next := int64(1 << 20)
	for _, p := range s.Pages() {
		if err := m.k.MigratePages(AppCred, s, m.free, p, next, 1, 0, FlagRW|FlagDirty|FlagReferenced); err != nil {
			m.t.Errorf("reclaim on delete: %v", err)
		}
		next++
	}
}

// newTestManager creates a manager with nFree frames taken from the boot
// segment (playing the SPCM's role).
func newTestManager(t *testing.T, k *Kernel, nFree int64, d DeliveryMode) *testManager {
	t.Helper()
	free, err := k.CreateSegment("free-pages", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.MigratePages(SystemCred, k.BootSegment(), free, 100, 0, nFree, 0, 0); err != nil {
		t.Fatal(err)
	}
	return &testManager{t: t, k: k, free: free, delivery: d}
}

// newOffsetTestManager is newTestManager with an explicit boot-segment
// offset, so several managers can draw disjoint frame ranges.
func newOffsetTestManager(t *testing.T, k *Kernel, start, nFree int64, d DeliveryMode) *testManager {
	t.Helper()
	free, err := k.CreateSegment(fmt.Sprintf("free-pages-%d", start), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.MigratePages(SystemCred, k.BootSegment(), free, start, 0, nFree, 0, 0); err != nil {
		t.Fatal(err)
	}
	return &testManager{t: t, k: k, free: free, delivery: d}
}

// TestRevokeDropsManagerRecord: revoking a manager drops the kernel's record
// of it, under both schedulers, and its segments fault on to the adopter.
func TestRevokeDropsManagerRecord(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		k := newTestKernelWith(Config{Concurrent: concurrent})
		m := newOffsetTestManager(t, k, 0, 8, DeliverSameProcess)
		k.SetDefaultManager(newOffsetTestManager(t, k, 8, 8, DeliverSameProcess))
		space, _ := k.CreateSegment("space", 1)
		k.SetSegmentManager(space, m)
		if err := k.Access(space, 0, Write); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Revoke(m); err != nil {
			t.Fatal(err)
		}
		k.mgrMu.Lock()
		_, kept := k.managers[m]
		k.mgrMu.Unlock()
		if kept {
			t.Errorf("concurrent=%v: the kernel still holds the revoked manager's record", concurrent)
		}
		if err := k.Access(space, 1, Write); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBootSegmentHoldsAllFrames(t *testing.T) {
	k := newTestKernel(t)
	boot := k.BootSegment()
	if boot.ID() != WellKnownPhysSegment {
		t.Fatalf("boot segment id = %d", boot.ID())
	}
	if !boot.Restricted() {
		t.Fatal("boot segment must be restricted")
	}
	if boot.PageCount() != k.Mem().NumFrames() {
		t.Fatalf("boot holds %d pages, want %d", boot.PageCount(), k.Mem().NumFrames())
	}
	// Frames appear in physical-address order: page n is frame n.
	for _, n := range []int64{0, 1, 100, 255} {
		if f := boot.FrameAt(n); f == nil || f.PFN() != phys.PFN(n) {
			t.Fatalf("boot page %d holds wrong frame", n)
		}
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// A page is one frame: CreateSegment takes the paper's page-size parameter
// but accepts only 1; the extent plane is the one way a mapping covers more.
func TestCreateSegmentValidation(t *testing.T) {
	k := newTestKernel(t)
	for _, fpp := range []int{0, 2, 3, 4, -1} {
		if _, err := k.CreateSegment("bad", fpp); !errors.Is(err, ErrBadRange) {
			t.Fatalf("framesPerPage %d: err = %v, want ErrBadRange", fpp, err)
		}
	}
	s, err := k.CreateSegment("base", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.PageSize() != k.Mem().FrameSize() {
		t.Fatalf("page size = %d, want the frame size %d", s.PageSize(), k.Mem().FrameSize())
	}
}

func TestMigrateMovesDataAndAppliesFlags(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	b, _ := k.CreateSegment("b", 1)
	if err := k.MigratePages(SystemCred, k.BootSegment(), a, 10, 0, 2, FlagRead, 0); err != nil {
		t.Fatal(err)
	}
	a.FrameAt(0).Data()[0] = 0x5A
	if err := k.MigratePages(AppCred, a, b, 0, 7, 1, FlagWrite|FlagDirty, FlagRead); err != nil {
		t.Fatal(err)
	}
	if a.HasPage(0) {
		t.Fatal("source page still present after migrate")
	}
	if !b.HasPage(7) {
		t.Fatal("destination page missing after migrate")
	}
	if b.FrameAt(7).Data()[0] != 0x5A {
		t.Fatal("data did not travel with the frame")
	}
	flags, _ := b.Flags(7)
	if flags != FlagWrite|FlagDirty {
		t.Fatalf("flags = %v, want write|dirty", flags)
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateErrors(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	b, _ := k.CreateSegment("b", 1)
	if err := k.MigratePages(SystemCred, k.BootSegment(), a, 10, 0, 4, 0, 0); err != nil {
		t.Fatal(err)
	}

	if err := k.MigratePages(AppCred, a, b, 99, 0, 1, 0, 0); !errors.Is(err, ErrPageNotPresent) {
		t.Fatalf("missing source: %v", err)
	}
	if err := k.MigratePages(AppCred, a, a, 0, 1, 1, 0, 0); !errors.Is(err, ErrPageBusy) {
		t.Fatalf("busy destination: %v", err)
	}
	if err := k.MigratePages(AppCred, k.BootSegment(), a, 50, 50, 1, 0, 0); !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("unprivileged boot migrate: %v", err)
	}
	if err := k.MigratePages(AppCred, a, b, 0, 0, 0, 0, 0); !errors.Is(err, ErrBadRange) {
		t.Fatalf("zero-length migrate: %v", err)
	}
	if err := k.MigratePages(AppCred, a, b, -1, 0, 1, 0, 0); !errors.Is(err, ErrBadRange) {
		t.Fatalf("negative page: %v", err)
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateAllOrNothing(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	b, _ := k.CreateSegment("b", 1)
	if err := k.MigratePages(SystemCred, k.BootSegment(), a, 10, 0, 3, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Destination page 1 occupied: migrating [0,3) onto [0,3) must fail
	// without moving anything.
	if err := k.MigratePages(SystemCred, k.BootSegment(), b, 50, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	err := k.MigratePages(AppCred, a, b, 0, 0, 3, 0, 0)
	if !errors.Is(err, ErrPageBusy) {
		t.Fatalf("err = %v", err)
	}
	for i := int64(0); i < 3; i++ {
		if !a.HasPage(i) {
			t.Fatalf("page %d moved despite failed migrate", i)
		}
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestModifyPageFlags(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	if err := k.MigratePages(SystemCred, k.BootSegment(), a, 10, 0, 2, FlagRW|FlagDirty, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.ModifyPageFlags(AppCred, a, 0, 2, FlagPinned, FlagDirty|FlagWrite); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2; i++ {
		flags, _ := a.Flags(i)
		if flags != FlagRead|FlagPinned {
			t.Fatalf("page %d flags = %v", i, flags)
		}
	}
	if err := k.ModifyPageFlags(AppCred, a, 5, 1, 0, 0); !errors.Is(err, ErrPageNotPresent) {
		t.Fatalf("absent page: %v", err)
	}
	if err := k.ModifyPageFlags(AppCred, k.BootSegment(), 0, 1, 0, 0); !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("restricted: %v", err)
	}
}

func TestGetPageAttributes(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	if err := k.MigratePages(SystemCred, k.BootSegment(), a, 42, 1, 1, FlagRead, 0); err != nil {
		t.Fatal(err)
	}
	attrs, err := k.GetPageAttributes(a, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if attrs[0].Present || attrs[2].Present {
		t.Fatal("absent pages reported present")
	}
	got := attrs[1]
	if !got.Present || got.PFN != 42 || got.PhysAddr != 42*4096 {
		t.Fatalf("attrs[1] = %+v", got)
	}
	if got.Flags != FlagRead {
		t.Fatalf("flags = %v", got.Flags)
	}
	if got.Color != 42%8 {
		t.Fatalf("color = %d", got.Color)
	}
	if _, err := k.GetPageAttributes(a, -1, 1); !errors.Is(err, ErrBadRange) {
		t.Fatalf("bad range: %v", err)
	}
}

// Table 1, row 1: the V++ minimal fault handled by the faulting process
// must cost exactly 107 µs of virtual time.
func TestMinimalFaultSameProcessCost(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 8, DeliverSameProcess)
	app, _ := k.CreateSegment("app", 1)
	k.SetSegmentManager(app, m)

	start := k.Clock().Now()
	if err := k.Access(app, 0, Write); err != nil {
		t.Fatal(err)
	}
	elapsed := k.Clock().Now() - start
	if want := k.Cost().VppMinimalFaultSameProcess(); elapsed != want {
		t.Fatalf("minimal fault cost %v, want %v (=107µs)", elapsed, want)
	}
	if elapsed != 107*time.Microsecond {
		t.Fatalf("minimal fault cost %v, want 107µs", elapsed)
	}
	if len(m.faults) != 1 || m.faults[0].Kind != FaultMissing {
		t.Fatalf("faults = %v", m.faults)
	}
}

// Table 1, row 2: the same fault through a separate-process manager costs
// 379 µs.
func TestMinimalFaultSeparateManagerCost(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 8, DeliverSeparateProcess)
	app, _ := k.CreateSegment("app", 1)
	k.SetSegmentManager(app, m)

	start := k.Clock().Now()
	if err := k.Access(app, 0, Write); err != nil {
		t.Fatal(err)
	}
	elapsed := k.Clock().Now() - start
	if want := k.Cost().VppMinimalFaultSeparateManager(); elapsed != want {
		t.Fatalf("fault cost %v, want %v (=379µs)", elapsed, want)
	}
	if elapsed != 379*time.Microsecond {
		t.Fatalf("fault cost %v, want 379µs", elapsed)
	}
}

// Figure 1: a virtual address space segment composed of code, data and
// stack segments via bound regions.
func TestAddressSpaceComposition(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 16, DeliverSameProcess)
	code, _ := k.CreateSegment("code", 1)
	data, _ := k.CreateSegment("data", 1)
	stack, _ := k.CreateSegment("stack", 1)
	space, _ := k.CreateSegment("address-space", 1)
	for _, s := range []*Segment{code, data, stack, space} {
		k.SetSegmentManager(s, m)
	}
	// Layout: code at pages [0,4), data at [4,12), stack at [12,16).
	if err := k.BindRegion(space, 0, 4, code, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := k.BindRegion(space, 4, 8, data, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := k.BindRegion(space, 12, 4, stack, 0, false); err != nil {
		t.Fatal(err)
	}

	// A reference through the space lands in the bound segment: faults are
	// delivered to the bound segment's manager and the frame appears there.
	if err := k.Access(space, 5, Write); err != nil {
		t.Fatal(err)
	}
	if !data.HasPage(1) {
		t.Fatal("write to space page 5 should materialize data page 1")
	}
	if space.PageCount() != 0 {
		t.Fatal("space segment itself should hold no frames")
	}
	if err := k.Access(space, 13, Write); err != nil {
		t.Fatal(err)
	}
	if !stack.HasPage(1) {
		t.Fatal("write to space page 13 should materialize stack page 1")
	}
	// Migrating a frame "to the data region" of the space effectively
	// migrates it to the data segment (§2.1) — here we check the
	// equivalent resolution on access.
	if err := k.Access(space, 5, Read); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestBindRejectsOverlapAndSizeMismatch(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	b, _ := k.CreateSegment("b", 1)
	if err := k.BindRegion(a, 0, 4, b, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := k.BindRegion(a, 2, 4, b, 10, false); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlap: %v", err)
	}
	if err := k.BindRegion(a, 10, 0, b, 0, false); !errors.Is(err, ErrBadRange) {
		t.Fatalf("empty bind: %v", err)
	}
}

func TestCopyOnWrite(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 16, DeliverSameProcess)
	file, _ := k.CreateSegment("file", 1)
	space, _ := k.CreateSegment("space", 1)
	k.SetSegmentManager(file, m)
	k.SetSegmentManager(space, m)
	// Populate the file with recognizable data.
	if err := k.MigratePages(SystemCred, k.BootSegment(), file, 200, 0, 4, FlagRead, 0); err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 4; p++ {
		file.FrameAt(p).Data()[0] = byte(0xC0 + p)
	}
	if err := k.BindRegion(space, 0, 4, file, 0, true); err != nil {
		t.Fatal(err)
	}

	// Reads go through to the file without copying.
	if err := k.Access(space, 2, Read); err != nil {
		t.Fatal(err)
	}
	if space.PageCount() != 0 {
		t.Fatal("read through COW binding must not materialize a page")
	}

	// A write materializes a private copy in the front segment; the kernel
	// performs the copy after the manager allocates the page (§2.1).
	if err := k.Access(space, 2, Write); err != nil {
		t.Fatal(err)
	}
	if !space.HasPage(2) {
		t.Fatal("write did not materialize a private page")
	}
	if space.FrameAt(2).Data()[0] != 0xC2 {
		t.Fatalf("private copy has wrong data: %#x", space.FrameAt(2).Data()[0])
	}
	flags, _ := space.Flags(2)
	if !flags.Has(FlagDirty) {
		t.Fatal("materialized COW page should be dirty")
	}
	// Divergence: writing the private copy leaves the file page unchanged.
	space.FrameAt(2).Data()[0] = 0xEE
	if file.FrameAt(2).Data()[0] != 0xC2 {
		t.Fatal("COW source changed by write to private copy")
	}
	// Other pages still read through.
	if err := k.Access(space, 3, Read); err != nil {
		t.Fatal(err)
	}
	if space.PageCount() != 1 {
		t.Fatal("read of another page materialized a copy")
	}
	// The COW fault was delivered to the front segment.
	var sawCOW bool
	for _, f := range m.faults {
		if f.Kind == FaultCopyOnWrite && f.Seg == space && f.Page == 2 {
			sawCOW = true
		}
	}
	if !sawCOW {
		t.Fatalf("no COW fault on space page 2; faults: %v", m.faults)
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyOnWriteOfMissingSourceFaultsSourceFirst(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 16, DeliverSameProcess)
	file, _ := k.CreateSegment("file", 1)
	space, _ := k.CreateSegment("space", 1)
	k.SetSegmentManager(file, m)
	k.SetSegmentManager(space, m)
	if err := k.BindRegion(space, 0, 4, file, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := k.Access(space, 1, Write); err != nil {
		t.Fatal(err)
	}
	// Two faults: a missing fault on the file (source page-in), then the
	// COW materialization on the space.
	if len(m.faults) != 2 {
		t.Fatalf("faults = %v", m.faults)
	}
	if m.faults[0].Kind != FaultMissing || m.faults[0].Seg != file {
		t.Fatalf("first fault = %v, want missing on file", m.faults[0])
	}
	if m.faults[1].Kind != FaultCopyOnWrite || m.faults[1].Seg != space {
		t.Fatalf("second fault = %v, want COW on space", m.faults[1])
	}
}

func TestProtectionFault(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 8, DeliverSameProcess)
	app, _ := k.CreateSegment("app", 1)
	k.SetSegmentManager(app, m)
	if err := k.MigratePages(SystemCred, k.BootSegment(), app, 60, 0, 1, FlagRead, 0); err != nil {
		t.Fatal(err)
	}
	// Read is fine, no fault.
	if err := k.Access(app, 0, Read); err != nil {
		t.Fatal(err)
	}
	if len(m.faults) != 0 {
		t.Fatalf("unexpected faults: %v", m.faults)
	}
	// Write faults; the manager grants write access; the access completes.
	if err := k.Access(app, 0, Write); err != nil {
		t.Fatal(err)
	}
	if len(m.faults) != 1 || m.faults[0].Kind != FaultProtection {
		t.Fatalf("faults = %v", m.faults)
	}
	flags, _ := app.Flags(0)
	if !flags.Has(FlagWrite) || !flags.Has(FlagDirty) {
		t.Fatalf("flags after granted write = %v", flags)
	}
}

func TestReferencedAndDirtyMaintenance(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	if err := k.MigratePages(SystemCred, k.BootSegment(), a, 10, 0, 1, FlagRW, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Access(a, 0, Read); err != nil {
		t.Fatal(err)
	}
	flags, _ := a.Flags(0)
	if !flags.Has(FlagReferenced) || flags.Has(FlagDirty) {
		t.Fatalf("after read: %v", flags)
	}
	if err := k.Access(a, 0, Write); err != nil {
		t.Fatal(err)
	}
	flags, _ = a.Flags(0)
	if !flags.Has(FlagDirty) {
		t.Fatalf("after write: %v", flags)
	}
}

func TestNoManagerFaultFails(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	if err := k.Access(a, 0, Read); !errors.Is(err, ErrNoManager) {
		t.Fatalf("err = %v", err)
	}
}

func TestFaultLoopBounded(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 8, DeliverSameProcess)
	m.noop = true
	a, _ := k.CreateSegment("a", 1)
	k.SetSegmentManager(a, m)
	if err := k.Access(a, 0, Read); !errors.Is(err, ErrFaultLoop) {
		t.Fatalf("err = %v", err)
	}
	if len(m.faults) == 0 {
		t.Fatal("manager never called")
	}
}

func TestManagerErrorPropagates(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	em := &errManager{}
	k.SetSegmentManager(a, em)
	if err := k.Access(a, 0, Read); !errors.Is(err, ErrManagerFailed) {
		t.Fatalf("err = %v", err)
	}
}

type errManager struct{}

func (e *errManager) ManagerName() string       { return "err" }
func (e *errManager) Delivery() DeliveryMode    { return DeliverSameProcess }
func (e *errManager) HandleFault(f Fault) error { return errors.New("backing store unreachable") }
func (e *errManager) SegmentDeleted(s *Segment) {}

func TestDeleteSegmentNotifiesAndReclaims(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 8, DeliverSameProcess)
	a, _ := k.CreateSegment("a", 1)
	k.SetSegmentManager(a, m)
	if err := k.Access(a, 0, Write); err != nil {
		t.Fatal(err)
	}
	if err := k.Access(a, 1, Write); err != nil {
		t.Fatal(err)
	}
	freeBefore := m.free.PageCount()
	if err := k.DeleteSegment(AppCred, a); err != nil {
		t.Fatal(err)
	}
	if len(m.deleted) != 1 || m.deleted[0] != a {
		t.Fatal("manager not notified of deletion")
	}
	if m.free.PageCount() != freeBefore+2 {
		t.Fatalf("manager reclaimed %d pages, want 2", m.free.PageCount()-freeBefore)
	}
	if _, err := k.Lookup(a.ID()); !errors.Is(err, ErrNoSuchSegment) {
		t.Fatal("deleted segment still resolvable")
	}
	if err := k.Access(a, 0, Read); !errors.Is(err, ErrNoSuchSegment) {
		t.Fatalf("access to deleted segment: %v", err)
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteSegmentWithoutManagerReturnsFramesToBoot(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	if err := k.MigratePages(SystemCred, k.BootSegment(), a, 10, 0, 3, 0, 0); err != nil {
		t.Fatal(err)
	}
	bootBefore := k.BootSegment().PageCount()
	if err := k.DeleteSegment(AppCred, a); err != nil {
		t.Fatal(err)
	}
	if k.BootSegment().PageCount() != bootBefore+3 {
		t.Fatal("frames not returned to boot segment")
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCountTable3Columns(t *testing.T) {
	k := newTestKernel(t)
	m := newTestManager(t, k, 16, DeliverSeparateProcess)
	a, _ := k.CreateSegment("a", 1)
	k.SetSegmentManager(a, m)
	k.ResetStats()
	for p := int64(0); p < 5; p++ {
		if err := k.Access(a, p, Write); err != nil {
			t.Fatal(err)
		}
	}
	st := k.Stats()
	if st.ManagerCalls != 5 {
		t.Fatalf("ManagerCalls = %d, want 5", st.ManagerCalls)
	}
	if st.MigrateCalls != 5 {
		t.Fatalf("MigrateCalls = %d, want 5", st.MigrateCalls)
	}
	if st.MigratedPages != 5 || st.MissingFaults != 5 || st.Accesses != 5 {
		t.Fatalf("stats = %+v", st)
	}
	// A reference to no page is not a memory reference.
	if err := k.Access(a, -1, Read); !errors.Is(err, ErrBadRange) {
		t.Fatalf("Access(-1) = %v, want ErrBadRange", err)
	}
	if got := k.Stats().Accesses; got != 5 {
		t.Fatalf("Accesses after a negative page = %d, want 5", got)
	}
	// Deleting the segment adds a manager call (close notification) but
	// the reclaim migrations come from the manager.
	if err := k.DeleteSegment(AppCred, a); err != nil {
		t.Fatal(err)
	}
	st = k.Stats()
	if st.ManagerCalls != 6 {
		t.Fatalf("ManagerCalls after delete = %d, want 6", st.ManagerCalls)
	}
	if st.MigrateCalls != 10 {
		t.Fatalf("MigrateCalls after delete = %d, want 10", st.MigrateCalls)
	}
	// Nor is a reference through a deleted segment's handle.
	if err := k.Access(a, 0, Read); !errors.Is(err, ErrNoSuchSegment) {
		t.Fatalf("Access after delete = %v, want ErrNoSuchSegment", err)
	}
	if st.Accesses != 5 || k.Stats().Accesses != 5 {
		t.Fatalf("Accesses after delete = %d, then %d; want 5", st.Accesses, k.Stats().Accesses)
	}
}

// Property: flag application matches the sFlgs/cFlgs specification for all
// combinations, with clear winning over set.
func TestFlagsApplyProperty(t *testing.T) {
	f := func(initial, set, clear uint16) bool {
		got := PageFlags(initial).Apply(PageFlags(set), PageFlags(clear))
		want := (PageFlags(initial) | PageFlags(set)) &^ PageFlags(clear)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequence of random valid migrations conserves frames and
// data integrity.
func TestMigrationConservationProperty(t *testing.T) {
	k := newTestKernel(t)
	segs := []*Segment{k.BootSegment()}
	for i := 0; i < 4; i++ {
		s, _ := k.CreateSegment("s", 1)
		segs = append(segs, s)
	}
	rng := sim.NewRNG(42)
	// Seed: move 32 frames into each user segment.
	for i, s := range segs[1:] {
		if err := k.MigratePages(SystemCred, k.BootSegment(), s, int64(i*32), 0, 32, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 2000; step++ {
		src := segs[rng.Intn(len(segs))]
		dst := segs[rng.Intn(len(segs))]
		pages := src.Pages()
		if len(pages) == 0 || src == dst {
			continue
		}
		sp := pages[rng.Intn(len(pages))]
		dp := int64(rng.Intn(4096))
		err := k.MigratePages(SystemCred, src, dst, sp, dp, 1, PageFlags(rng.Intn(64)), PageFlags(rng.Intn(64)))
		if err != nil && !errors.Is(err, ErrPageBusy) {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%200 == 0 {
			if err := k.CheckFrameConservation(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessTranslationCosts(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	if err := k.MigratePages(SystemCred, k.BootSegment(), a, 10, 0, 1, FlagRW, 0); err != nil {
		t.Fatal(err)
	}
	// First access: migrate primed the TLB, so it is free.
	before := k.Clock().Now()
	if err := k.Access(a, 0, Read); err != nil {
		t.Fatal(err)
	}
	if got := k.Clock().Now() - before; got != 0 {
		t.Fatalf("primed access cost %v, want 0", got)
	}
	st := k.Stats()
	if st.TLBHits == 0 {
		t.Fatal("expected a TLB hit")
	}
	// Evict from the TLB by touching many other segments' pages, then the
	// access pays a TLB refill from the hash table.
	b, _ := k.CreateSegment("b", 1)
	if err := k.MigratePages(SystemCred, k.BootSegment(), b, 30, 0, 80, FlagRW, 0); err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 80; p++ {
		if err := k.Access(b, p, Read); err != nil {
			t.Fatal(err)
		}
	}
	before = k.Clock().Now()
	if err := k.Access(a, 0, Read); err != nil {
		t.Fatal(err)
	}
	if got := k.Clock().Now() - before; got != k.Cost().TLBFill {
		t.Fatalf("TLB-refill access cost %v, want %v", got, k.Cost().TLBFill)
	}
}

// TestConcurrentTLBPerSegment: under the concurrent scheduler each segment
// caches its translations in a TLB of its own, so one segment's installs
// never evict another's, and a migration's invalidate reaches the TLB of the
// segment the page left.
func TestConcurrentTLBPerSegment(t *testing.T) {
	t.Parallel()
	k := newTestKernelWith(Config{Concurrent: true})
	const n = 64 // the R3000's TLB size, the Config default
	a, _ := k.CreateSegment("a", 1)
	b, _ := k.CreateSegment("b", 1)
	spare, _ := k.CreateSegment("spare", 1)
	touchAll := func(s *Segment) (misses int64) {
		t.Helper()
		before := k.Stats().TLBMisses
		for p := int64(0); p < n; p++ {
			if err := k.Access(s, p, Read); err != nil {
				t.Fatal(err)
			}
		}
		return k.Stats().TLBMisses - before
	}
	// Each migrate installs the translations of the pages it moves in.
	if err := k.MigratePages(SystemCred, k.BootSegment(), a, 0, 0, n, FlagRW, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.MigratePages(SystemCred, k.BootSegment(), b, n, 0, n, FlagRW, 0); err != nil {
		t.Fatal(err)
	}
	if m := touchAll(b); m != 0 {
		t.Fatalf("b's own installs: %d TLB misses, want 0", m)
	}
	if m := touchAll(a); m != 0 {
		t.Fatalf("a after b filled its TLB: %d TLB misses, want 0", m)
	}
	// Out and back: the way back installs page 5 over the round-robin
	// victim, page 0, so page 5 hits and page 0 misses once — unless page 5
	// were still cached, which only an entry left stale by an invalidate
	// that missed a's TLB could make it.
	if err := k.MigratePages(AppCred, a, spare, 5, 0, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.MigratePages(AppCred, spare, a, 0, 5, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	before := k.Stats().TLBMisses
	for _, p := range []int64{5, 0, 5} {
		if err := k.Access(a, p, Read); err != nil {
			t.Fatal(err)
		}
	}
	if m := k.Stats().TLBMisses - before; m != 1 {
		t.Fatalf("a after page 5 moved out and back: %d TLB misses, want 1", m)
	}
}

func TestSystemCredCanModifyBootFlags(t *testing.T) {
	k := newTestKernel(t)
	if err := k.ModifyPageFlags(SystemCred, k.BootSegment(), 0, 4, FlagPinned, 0); err != nil {
		t.Fatal(err)
	}
	flags, _ := k.BootSegment().Flags(0)
	if !flags.Has(FlagPinned) {
		t.Fatal("flags not applied")
	}
}

func TestDoubleDeleteSegment(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	if err := k.DeleteSegment(AppCred, a); err != nil {
		t.Fatal(err)
	}
	if err := k.DeleteSegment(AppCred, a); !errors.Is(err, ErrNoSuchSegment) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestAccessNegativePage(t *testing.T) {
	k := newTestKernel(t)
	a, _ := k.CreateSegment("a", 1)
	if err := k.Access(a, -1, Read); !errors.Is(err, ErrBadRange) {
		t.Fatalf("negative page access: %v", err)
	}
}
