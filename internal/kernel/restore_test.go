package kernel

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

// Restore puts a kernel back to its post-stocking image. FuzzRestore holds
// it to the one thing that means: after any script, a restored kernel is
// indistinguishable from a fresh boot and stocking — every structure Restore
// puts back compares equal — and it stays so when the same script then runs
// on both. Handles from before the restore are dead.

const (
	restoreFrames = 256
	restorePool   = 192 // donor pages [0, 192) hold frames [16, 208)
	restoreOps    = 64
)

// stockedKernel boots a metadata-only 256-frame machine and stocks a pool
// the way manager.NewFixedPool does: one migration of a frame range out of
// the boot segment into a fresh donor segment.
func stockedKernel(cfg Config) (*Kernel, *Segment) {
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: restoreFrames * 4096})
	k := New(mem, new(sim.Clock), sim.DECstation5000(), cfg)
	donor, err := k.CreateSegment("fixed-pool", 1)
	if err != nil {
		panic(err)
	}
	if err := k.MigratePages(SystemCred, k.BootSegment(), donor, 16, 0, restorePool, 0, 0); err != nil {
		panic(err)
	}
	return k, donor
}

// poolMgr serves a script's faults out of the donor, as a manager drawing on
// a fixed pool does: a missing or copy-on-write page gets the lowest donor
// page's frame, a protection fault the access it lacked. A deleted
// segment's pages go back to the donor above every page used.
type poolMgr struct {
	k     *Kernel
	donor *Segment
	next  int64
}

func (m *poolMgr) ManagerName() string    { return "pool-manager" }
func (m *poolMgr) Delivery() DeliveryMode { return DeliverSameProcess }

func (m *poolMgr) HandleFault(f Fault) error {
	if f.Kind == FaultProtection {
		need := FlagRead
		if f.Access == Write {
			need = FlagWrite
		}
		return m.k.ModifyPageFlags(AppCred, f.Seg, f.Page, 1, need, 0)
	}
	src := int64(-1)
	m.donor.ForEachPage(func(p int64) bool { src = p; return false })
	if src < 0 {
		return errors.New("pool empty")
	}
	return m.k.MigratePages(AppCred, m.donor, f.Seg, src, f.Page, 1, FlagRW, 0)
}

func (m *poolMgr) SegmentDeleted(s *Segment) {
	for _, p := range s.Pages() {
		_ = m.k.MigratePages(AppCred, s, m.donor, p, m.next, 1, 0, FlagRW|FlagDirty|FlagReferenced)
		m.next++
	}
}

// runRestoreScript applies the script in data to a stocked kernel — three
// bytes an operation — and returns the segments it created. Every
// operation's error is ignored: a refused one changes nothing, and either
// way both kernels a script runs on see the same outcome.
func runRestoreScript(k *Kernel, donor *Segment, data []byte) []*Segment {
	m := &poolMgr{k: k, donor: donor, next: restorePool}
	var made []*Segment
	segs := []*Segment{k.BootSegment(), donor}
	pick := func(b byte) *Segment { return segs[int(b)%len(segs)] }
	for n := 0; len(data) >= 3 && n < restoreOps; n++ {
		op, a, b := data[0]%8, data[1], data[2]
		data = data[3:]
		page := int64(b % 32)
		switch op {
		case 0: // create a managed segment, or with a's top bit manage one
			if a&0x80 != 0 {
				k.SetSegmentManager(pick(b), m)
				continue
			}
			s, err := k.CreateSegment(fmt.Sprintf("s%d", len(made)), 1)
			if err != nil {
				panic(err)
			}
			k.SetSegmentManager(s, m)
			made = append(made, s)
			segs = append(segs, s)
		case 1: // access, faulting through the manager
			acc := Read
			if a&0x80 != 0 {
				acc = Write
			}
			_ = k.Access(pick(a), page, acc)
		case 2: // migrate a run of up to eight pages from the donor
			_ = k.MigratePages(AppCred, donor, pick(a), int64(b), page, int64(a>>5)+1, FlagRW, 0)
		case 3: // modify flags
			_ = k.ModifyPageFlags(AppCred, pick(a), page, int64(a>>6)+1, PageFlags(b>>5), PageFlags(a>>5))
		case 4: // bind a region, copy-on-write when a's top bit says so
			_ = k.BindRegion(pick(a), 32+page, int64(a>>5)+1, pick(b), page, a&0x80 != 0)
		case 5: // delete
			_ = k.DeleteSegment(AppCred, pick(a))
		case 6: // return a page to the pool, or to the boot segment at its frame number
			s := pick(a)
			if f := s.FrameAt(page); f != nil && a&0x80 != 0 {
				_ = k.MigratePages(SystemCred, s, k.BootSegment(), page, int64(f.PFN()), 1, 0, FlagRW)
			} else if f != nil {
				_ = k.MigratePages(AppCred, s, donor, page, m.next, 1, 0, FlagRW)
				m.next++
			}
		case 7: // promote an extent of order 1-3, or demote one
			if a&0x80 != 0 {
				_ = k.DemoteExtent(AppCred, pick(a), page)
			} else {
				_ = k.PromoteExtent(AppCred, pick(a), page, int(a>>5)%3+1)
			}
		}
	}
	return made
}

// sameKernel reports the first difference between two quiescent kernels in
// what Restore puts back: the segment registry, every registered segment's
// state, the frame tables, the mapping table, the TLB, the counters, the
// clock and the manager records.
func sameKernel(got, want *Kernel) error {
	if got.nextID != want.nextID {
		return fmt.Errorf("next segment ID %d, want %d", got.nextID, want.nextID)
	}
	ids, wantIDs := segIDs(got), segIDs(want)
	if !slices.Equal(ids, wantIDs) {
		return fmt.Errorf("segments %v, want %v", ids, wantIDs)
	}
	for _, id := range ids {
		if err := sameSegment(got.segs[id], want.segs[id]); err != nil {
			return fmt.Errorf("segment %d: %w", id, err)
		}
	}
	switch {
	case !slices.Equal(got.frameOwner, want.frameOwner):
		return errors.New("frame owners differ")
	case !slices.Equal(got.framePage, want.framePage):
		return errors.New("frame pages differ")
	case !reflect.DeepEqual(got.tlb, want.tlb):
		return fmt.Errorf("TLB %+v, want %+v", got.tlb, want.tlb)
	case got.Stats() != want.Stats():
		return fmt.Errorf("stats %+v, want %+v", got.Stats(), want.Stats())
	case got.clock.Now() != want.clock.Now():
		return fmt.Errorf("clock %v, want %v", got.clock.Now(), want.clock.Now())
	case len(got.managers) != len(want.managers):
		return fmt.Errorf("%d manager records, want %d", len(got.managers), len(want.managers))
	}
	return sameTable(got.table, want.table)
}

func segIDs(k *Kernel) []SegID {
	ids := make([]SegID, 0, len(k.segs))
	for id := range k.segs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func sameSegment(got, want *Segment) error {
	switch {
	case got.name != want.name || got.pageSize != want.pageSize:
		return fmt.Errorf("%s, want %s", got, want)
	case got.deleted != want.deleted || got.named != want.named:
		return fmt.Errorf("deleted %v named %v, want %v %v", got.deleted, got.named, want.deleted, want.named)
	case (got.manager.Load() == nil) != (want.manager.Load() == nil):
		return errors.New("manager registration differs")
	case got.pages.n != want.pages.n || !slices.Equal(got.pages.dense, want.pages.dense):
		return fmt.Errorf("%d pages (dense prefix %d), want %d (%d)", got.pages.n, len(got.pages.dense), want.pages.n, len(want.pages.dense))
	case !maps.EqualFunc(got.pages.sparse, want.pages.sparse, func(a, b *pageEntry) bool { return *a == *b }):
		return errors.New("sparse pages differ")
	case !maps.Equal(got.extents, want.extents) || got.extOrderCount != want.extOrderCount:
		return fmt.Errorf("extents %v %v, want %v %v", got.extents, got.extOrderCount, want.extents, want.extOrderCount)
	case !reflect.DeepEqual(got.tlb, want.tlb):
		return fmt.Errorf("TLB %+v, want %+v", got.tlb, want.tlb)
	case len(got.bindings) != len(want.bindings):
		return fmt.Errorf("%d bindings, want %d", len(got.bindings), len(want.bindings))
	}
	for i, b := range got.bindings {
		w := want.bindings[i]
		if b.start != w.start || b.pages != w.pages || b.targetStart != w.targetStart || b.cow != w.cow || b.target.id != w.target.id {
			return fmt.Errorf("binding %d %+v, want %+v", i, *b, *w)
		}
	}
	return nil
}

func sameTable(got, want *mappingTable) error {
	gs, gd := got.stats()
	ws, wd := want.stats()
	if gs != ws || gd != wd {
		return fmt.Errorf("table counters %d/%d, want %d/%d", gs, gd, ws, wd)
	}
	if !slices.Equal(got.slots, want.slots) || got.overflow != want.overflow || got.ovHome != want.ovHome || got.ovLen != want.ovLen ||
		got.ovLive != want.ovLive || got.spanSeen.Load() != want.spanSeen.Load() {
		return errors.New("mapping tables differ")
	}
	return nil
}

func FuzzRestore(f *testing.F) {
	// Create s0; write its pages 0 and 1 (donor frames 16 and 17); return
	// page 0 to the pool and page 1 to the boot segment, which names both;
	// promote donor pages [4, 6) (frames 20 and 21) to an order-1 extent;
	// bind boot pages to s0; hand the donor to the manager. In every
	// configuration.
	touchAll := []byte{0, 0, 0, 1, 0x80, 0, 1, 0x80, 1, 6, 2, 0, 6, 0x80, 1, 7, 1, 4, 4, 0x81, 2, 0, 0x80, 1}
	for mode := byte(0); mode < 4; mode++ {
		f.Add(mode, touchAll)
	}
	f.Add(byte(0), []byte{0, 0, 0, 1, 2, 3, 1, 130, 4, 3, 2, 5, 5, 2, 0})
	f.Add(byte(1), []byte{0, 0, 0, 0, 0, 0, 1, 2, 0, 1, 131, 1, 4, 130, 33, 5, 3, 0})
	f.Add(byte(2), []byte{0, 0, 0, 2, 98, 0, 7, 2, 0, 7, 130, 0, 2, 1, 40, 7, 1, 32, 6, 130, 3})
	f.Add(byte(3), []byte("create-access-bind-migrate-delete-promote-demote-return"))
	f.Fuzz(func(t *testing.T, mode byte, data []byte) {
		cfg := Config{Concurrent: mode&1 != 0, Superpages: mode&2 != 0}
		k, donor := stockedKernel(cfg)
		img, err := k.Image()
		if err != nil {
			t.Fatal(err)
		}
		stale := runRestoreScript(k, donor, data)
		k.Restore(img)
		fresh, freshDonor := stockedKernel(cfg)
		if err := sameKernel(k, fresh); err != nil {
			t.Fatalf("restored kernel: %v", err)
		}
		if err := k.CheckFrameConservation(); err != nil {
			t.Fatal(err)
		}
		for _, s := range stale {
			if err := k.Access(s, 0, Read); !errors.Is(err, ErrNoSuchSegment) {
				t.Fatalf("fault through a pre-restore handle to %s: %v, want ErrNoSuchSegment", s, err)
			}
		}
		runRestoreScript(k, donor, data)
		runRestoreScript(fresh, freshDonor, data)
		if err := sameKernel(k, fresh); err != nil {
			t.Fatalf("the script again, on the restored kernel and a fresh one: %v", err)
		}
	})
}

// An image is the kernel's metadata alone: Image refuses a machine whose
// frames carry contents, and one with a manager registered, which could
// not be restored to.
func TestImageRefuses(t *testing.T) {
	t.Parallel()
	if _, err := newTestKernel(t).Image(); err == nil {
		t.Fatal("Image of a machine that stores frame contents succeeded")
	}
	k, donor := stockedKernel(Config{})
	s, err := k.CreateSegment("app", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(s, &poolMgr{k: k, donor: donor})
	if _, err := k.Image(); err == nil {
		t.Fatal("Image with a manager registered succeeded")
	}
}
