package kernel

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"
)

// Image is a kernel's state as boot and pool stocking leave it, for a
// harness that runs several measurements on one machine: Restore puts it
// back, so each run starts exactly where a fresh boot and stocking would,
// without zeroing and re-stocking fresh memory. It holds copies, never the
// live structures, so one image serves any number of restores.
//
// Frame contents are not part of it, so only a metadata-only machine
// (phys.Config.StoreData off), as the application benchmarks run, can be
// imaged.
type Image struct {
	segs       []segImage // in ID order
	nextID     SegID
	frameOwner []SegID
	framePage  []int64
	table      *mappingTable
	tlb        *tlb
	stats      Stats
	now        time.Duration
}

// segImage is one segment's mutable state; id, name, page size and the
// boot-time marks are fixed at creation.
type segImage struct {
	s             *Segment
	pages         pageStore
	bindings      []*binding
	named         bool
	extents       map[int64]uint8
	extOrderCount [MaxExtentOrder + 1]uint32
	tlb           *tlb
}

// Image copies the kernel's state. It must be taken before any manager
// registers — a manager's state lives outside the kernel, so an image with
// one could not be restored to — and with the kernel quiescent.
func (k *Kernel) Image() (*Image, error) {
	if k.mem.Frame(0).StoresData() {
		return nil, errors.New("kernel: image of a machine that stores frame contents")
	}
	k.mgrMu.Lock()
	n := len(k.managers)
	k.mgrMu.Unlock()
	if n > 0 {
		return nil, fmt.Errorf("kernel: image taken with %d managers registered; take it before the first", n)
	}
	k.mu.RLock()
	defer k.mu.RUnlock()
	img := &Image{
		nextID:     k.nextID,
		frameOwner: slices.Clone(k.frameOwner),
		framePage:  slices.Clone(k.framePage),
		table:      k.table.clone(),
		tlb:        k.tlb.clone(),
		stats:      k.Stats(),
		now:        k.clock.Now(),
	}
	ids := make([]SegID, 0, len(k.segs))
	for id := range k.segs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		s := k.segs[id]
		s.lock()
		si := segImage{
			s:             s,
			bindings:      slices.Clone(s.bindings),
			named:         s.named,
			extents:       maps.Clone(s.extents),
			extOrderCount: s.extOrderCount,
			tlb:           s.tlb.clone(),
		}
		si.pages.restore(&s.pages)
		s.unlock()
		img.segs = append(img.segs, si)
	}
	return img, nil
}

// Restore puts the kernel back into img, which an earlier Image of this
// kernel took: the segment registry and next ID, each imaged segment's page
// store, bindings, extents, cache marks and TLB, the frame tables, the
// mapping table and TLB, the activity counters and the clock. Every manager
// record is revoked and dropped, along with the default manager and the
// revocation hook that named one; a segment created since the image is
// retired, so a handle to it gets ErrNoSuchSegment, and its ID is handed out
// again. The kernel must be quiescent.
func (k *Kernel) Restore(img *Image) {
	k.mgrMu.Lock()
	for _, c := range k.managers {
		c.revoked.Store(true)
	}
	clear(k.managers)
	k.mgrMu.Unlock()
	k.defaultMgr, k.onRevoke = nil, nil

	k.mu.Lock()
	for id, s := range k.segs {
		if id >= img.nextID {
			s.lock()
			s.retireLocked()
			s.unlock()
		}
	}
	clear(k.segs)
	for i := range img.segs {
		si := &img.segs[i]
		s := si.s
		s.lock()
		s.pages.restore(&si.pages)
		s.bindings = slices.Clone(si.bindings)
		s.manager.Store(nil)
		s.named, s.deleted = si.named, false
		s.extents = maps.Clone(si.extents)
		s.extOrderCount = si.extOrderCount
		s.tlb = si.tlb.clone()
		s.unlock()
		k.segs[s.id] = s
	}
	k.nextID = img.nextID
	k.mu.Unlock()

	copy(k.frameOwner, img.frameOwner)
	copy(k.framePage, img.framePage)
	k.table.restore(img.table)
	k.tlb = img.tlb.clone()
	k.stats.store(img.stats)
	k.clock.Reset()
	k.clock.AdvanceTo(img.now)
}
