package manager_test

import (
	"errors"
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/spcm"
)

// FuzzSlotLedger drives one manager on a FixedPool and one on an SPCM with
// ExtentOrder 2 through a byte-decoded script of everything that moves a
// frame into or out of a free-page segment — grants (served, refused, and
// failing mid-migration on an occupied slot), faults, fast re-faults,
// evictions, EnsureFree, ReturnFreeFrames (the source erroring or not),
// fresh-run appends, extent fills, failed run refills, swap out and in,
// segment deletion and Adopt — and checks slot and frame conservation after
// every step. Operations may fail; the ledger may not drift.
func FuzzSlotLedger(f *testing.F) {
	f.Add([]byte("\x00\x07\x03\x01\x03\x42\x04\x01\x05\x02\x05\x81\x02\x13\x07\x03\x07\x83"))
	f.Add([]byte("\x01\x09\x03\x00\x03\x04\x03\x08\x09\x04\x0a\x08\x09\x0c\x0a\x00\x06\x0c\x03\x05"))
	f.Add([]byte("\x01\x08\x08\x00\x08\x01\x0d\x02\x0d\x01\x0b\x00\x0c\x00\x03\x03\x08\x02\x07\x08\x0d\x00"))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		cache := 0
		if len(script) > 0 {
			cache = int(script[0]>>4) & 4 // a lane frame cache on some scripts
		}
		for _, w := range []*ledgerWorld{newPoolWorld(t), newSPCMWorld(t, cache)} {
			for i := 0; i+1 < len(script); i += 2 {
				w.step(script[i], script[i+1])
				if err := w.check(); err != nil {
					t.Fatalf("%s: after step %d (op %d, arg %#x): %v", w.g.ManagerName(), i/2, script[i]%ledgerOps, script[i+1], err)
				}
			}
		}
	})
}

const (
	ledgerOps   = 14
	ledgerPages = 48 // faulted pages; the next 32 are the contiguous-append region
)

var errLedgerReturn = errors.New("return refused")

// ledgerWorld is one kernel, one manager under test and its frame source.
type ledgerWorld struct {
	t     *testing.T
	k     *kernel.Kernel
	g     *manager.Generic
	seg   *kernel.Segment
	spare *kernel.Segment // frames no source knows: slot blockers and Adopt's strays
	src   manager.FrameSource
	check func() error

	refuse, failReturn bool // the source's next answers
}

// flakyPool and flakySPCM are the sources with the world's switches wired
// in: a refused request reserves nothing, a failed return moves nothing.
type flakyPool struct {
	*manager.FixedPool
	w *ledgerWorld
}

func (p flakyPool) RequestFrames(g *manager.Generic, n int, c phys.Range) (int, error) {
	if p.w.refuse {
		return 0, nil
	}
	return p.FixedPool.RequestFrames(g, n, c)
}

func (p flakyPool) ReturnFrames(g *manager.Generic, slots []int64) error {
	if p.w.failReturn {
		return errLedgerReturn
	}
	return p.FixedPool.ReturnFrames(g, slots)
}

type flakySPCM struct {
	*spcm.SPCM
	w *ledgerWorld
}

func (s flakySPCM) ReturnFrames(g *manager.Generic, slots []int64) error {
	if s.w.failReturn {
		return errLedgerReturn
	}
	return s.SPCM.ReturnFrames(g, slots)
}

// newLedgerWorld boots a 64-frame machine with the superpage plane on and
// sets four frames aside.
func newLedgerWorld(t *testing.T) *ledgerWorld {
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 64 * 4096, CacheColors: 8, Nodes: 2})
	k := kernel.New(mem, new(sim.Clock), sim.DECstation5000(), kernel.Config{Superpages: true})
	w := &ledgerWorld{t: t, k: k}
	w.spare = w.must(k.CreateSegment("spare", 1))
	w.ok(k.MigratePages(kernel.SystemCred, k.BootSegment(), w.spare, 60, 0, 4, 0, 0))
	return w
}

func newPoolWorld(t *testing.T) *ledgerWorld {
	w := newLedgerWorld(t)
	pool, err := manager.NewFixedPool(w.k, 24, 0)
	w.ok(err)
	w.manage(manager.Config{Name: "on-pool", Source: flakyPool{pool, w}})
	w.check = func() error {
		return errors.Join(w.g.CheckSlots(), w.k.CheckFrameConservation())
	}
	return w
}

func newSPCMWorld(t *testing.T, laneCache int) *ledgerWorld {
	w := newLedgerWorld(t)
	policy := spcm.DefaultPolicy()
	policy.LaneCacheRefill = laneCache
	s := spcm.New(w.k, policy)
	s.SetGrantGate(func(int) bool { return !w.refuse })
	w.manage(manager.Config{Name: "on-spcm", Source: flakySPCM{s, w}, ExtentOrder: 2})
	s.Register(w.g, "on-spcm", 0)
	w.check = s.CheckInvariants // slot and frame conservation among them
	return w
}

func (w *ledgerWorld) manage(cfg manager.Config) {
	g, err := manager.NewGeneric(w.k, cfg)
	w.ok(err)
	w.g, w.src = g, cfg.Source
	w.seg = w.must(g.CreateManagedSegment("data"))
}

func (w *ledgerWorld) ok(err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
}

func (w *ledgerWorld) must(seg *kernel.Segment, err error) *kernel.Segment {
	w.t.Helper()
	w.ok(err)
	return seg
}

// blocked runs fn with a foreign frame parked on slot of the manager's free
// segment, so a migration fn's reservation aims there is refused.
func (w *ledgerWorld) blocked(slot int64, fn func()) {
	page := w.spare.Pages()[0]
	w.ok(w.k.MigratePages(kernel.SystemCred, w.spare, w.g.FreeSegment(), page, slot, 1, 0, 0))
	fn()
	w.ok(w.k.MigratePages(kernel.SystemCred, w.g.FreeSegment(), w.spare, slot, page, 1, 0, 0))
}

// vacate leaves the extent around page absent with no fast-refault
// association and the run magazine flushed, so the next fault on it is an
// extent fill that starts with a refill (on the extent-order manager).
func (w *ledgerWorld) vacate(page int64) int64 {
	base := page &^ 3
	for p := base; p < base+4; p++ {
		w.g.EvictPage(w.seg, p)
	}
	w.g.ReturnFreeFrames(w.g.FreeFrames())
	return base
}

// step runs one scripted operation. Errors are the operation's business.
func (w *ledgerWorld) step(op, arg byte) {
	g, page := w.g, int64(arg)%ledgerPages
	switch op % ledgerOps {
	case 0: // grant
		w.src.RequestFrames(g, 1+int(arg%8), phys.AnyFrame())
	case 1: // refused grant
		w.refuse = true
		w.src.RequestFrames(g, 1+int(arg%8), phys.AnyFrame())
		w.refuse = false
	case 2: // a grant whose migration fails part-way
		n := 2 + int(arg%3)
		w.blocked(manager.NextSlots(g, n)[int(arg>>4)%n], func() { w.src.RequestFrames(g, n, phys.AnyFrame()) })
	case 3: // fault
		access := kernel.Read
		if arg&0x40 != 0 {
			access = kernel.Write
		}
		w.k.Access(w.seg, page, access)
	case 4: // fast re-fault
		g.EvictPage(w.seg, page)
		w.k.Access(w.seg, page, kernel.Read)
	case 5: // evict, onto an occupied slot when the high bit is set
		evict := func() { g.EvictPage(w.seg, page) }
		if arg&0x80 != 0 {
			w.blocked(manager.NextSlots(g, 1)[0], evict)
		} else {
			evict()
		}
	case 6:
		g.EnsureFree(int(arg % 16))
	case 7: // return frames; the source errors when the high bit is set
		w.failReturn = arg&0x80 != 0
		g.ReturnFreeFrames(1 + int(arg%8))
		w.failReturn = false
	case 8: // the default manager's append: a fresh run, mapped at once
		g.RequestFreshRun(4)
		g.PageInContiguous(w.seg, ledgerPages+int64(arg%8)*4, 4)
	case 9: // extent fill
		w.k.Access(w.seg, w.vacate(page), kernel.Write)
	case 10: // extent fill whose run refill fails
		base := w.vacate(page)
		w.blocked(manager.NextRefillSlot(g), func() { w.k.Access(w.seg, base, kernel.Write) })
	case 11: // swap out and back in
		pages := w.seg.Pages()
		g.SwapOut(w.seg)
		g.SwapIn(w.seg, pages)
	case 12: // delete the segment; the manager takes its frames home
		w.ok(w.k.DeleteSegment(kernel.AppCred, w.seg))
		w.seg = w.must(g.CreateManagedSegment("data"))
	case 13: // Adopt a stray frame, on or past the next receivable slot
		if pages := w.spare.Pages(); len(pages) > 1 {
			w.ok(w.k.MigratePages(kernel.SystemCred, w.spare, g.FreeSegment(), pages[1], manager.NextSlots(g, 3)[arg%3], 1, 0, 0))
			g.Adopt()
		}
	}
}
