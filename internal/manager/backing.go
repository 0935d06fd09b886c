// Package manager implements process-level segment managers (§2.2): the
// generic, specializable manager that applications derive their
// application-specific managers from, plus backing-store adapters and an
// asynchronous prefetch engine.
//
// "An application segment manager can be 'specialized' from a generic or
// standard segment manager ... The generic implementation provides data
// structures for managing the free page segment and basic page faulting
// handling. The page replacement selection routines and page fill routines
// can be easily specialized to particular application requirements." (§2.2)
//
// In Go the two routines are interfaces on Config — the Backing's Fill is
// the page-fill routine, the Policy the replacement selection — beside
// funcs for allocation constraints and protection faults, rather than
// virtual methods, but the division of labour is the paper's.
package manager

import (
	"fmt"

	"epcm/internal/kernel"
	"epcm/internal/phys"
	"epcm/internal/storage"
)

// Backing supplies and persists page data for managed segments. A manager
// consults it on page-in and writeback. Implementations charge their own
// latency (e.g. through a storage.Store bound to the virtual clock).
type Backing interface {
	// Fill reads the data for (seg, page) into frame.
	Fill(seg *kernel.Segment, page int64, frame *phys.Frame) error
	// Writeback persists frame as the data of (seg, page).
	Writeback(seg *kernel.Segment, page int64, frame *phys.Frame) error
}

// ZeroFill is a Backing for anonymous memory with no backing store: pages
// start logically zero and dirty pages are simply kept (or lost on
// reclaim). In V++ a newly allocated frame is NOT zeroed unless it changes
// user (§3.1), so Fill does nothing; the manager decides when zeroing is
// actually required.
type ZeroFill struct{}

// Fill implements Backing without touching the frame.
func (ZeroFill) Fill(*kernel.Segment, int64, *phys.Frame) error { return nil }

// Writeback implements Backing by discarding the data.
func (ZeroFill) Writeback(*kernel.Segment, int64, *phys.Frame) error { return nil }

// FileBacking maps each managed segment to a named file in a block store,
// with page n stored at block n. This is the shape of the default segment
// manager's cache: "all address spaces are realized as bindings to open
// files" (§2.3).
type FileBacking struct {
	store storage.BlockStore
	names map[kernel.SegID]string
}

// NewFileBacking creates a FileBacking over store.
func NewFileBacking(store storage.BlockStore) *FileBacking {
	return &FileBacking{store: store, names: make(map[kernel.SegID]string)}
}

// BindFile associates a segment with a file name.
func (b *FileBacking) BindFile(seg *kernel.Segment, name string) {
	b.names[seg.ID()] = name
}

// FileOf reports the file a segment is bound to.
func (b *FileBacking) FileOf(seg *kernel.Segment) (string, bool) {
	n, ok := b.names[seg.ID()]
	return n, ok
}

func (b *FileBacking) name(seg *kernel.Segment) (string, error) {
	n, ok := b.names[seg.ID()]
	if !ok {
		return "", fmt.Errorf("manager: segment %v has no bound file", seg)
	}
	return n, nil
}

// Fill implements Backing from the file. The fetch goes straight into the
// frame's storage (or pooled scratch for metadata-only memory, where the
// latency is still charged) — no intermediate copy.
func (b *FileBacking) Fill(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	n, err := b.name(seg)
	if err != nil {
		return err
	}
	return frame.Fill(func(buf []byte) error { return b.store.Fetch(n, page, buf) })
}

// Writeback implements Backing to the file.
func (b *FileBacking) Writeback(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	n, err := b.name(seg)
	if err != nil {
		return err
	}
	return frame.WithData(func(buf []byte) error { return b.store.Store(n, page, buf) })
}

// SwapBacking persists anonymous pages to a swap file keyed by segment and
// page, used for program heaps that spill.
type SwapBacking struct {
	store storage.BlockStore
	names map[kernel.SegID]string // swap file names, cached: eviction runs hot
}

// NewSwapBacking creates a SwapBacking over store.
func NewSwapBacking(store storage.BlockStore) *SwapBacking {
	return &SwapBacking{store: store, names: make(map[kernel.SegID]string)}
}

func swapName(seg *kernel.Segment) string {
	return fmt.Sprintf("swap-seg-%d", seg.ID())
}

func (b *SwapBacking) swapName(seg *kernel.Segment) string {
	if n, ok := b.names[seg.ID()]; ok {
		return n
	}
	n := swapName(seg)
	b.names[seg.ID()] = n
	return n
}

// Fill implements Backing from swap. A page that was never written out has
// no swap image: it is a fresh first touch and costs no I/O (and, this
// being V++, no zeroing either — the frame did not change user).
func (b *SwapBacking) Fill(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	name := b.swapName(seg)
	if page >= b.store.Size(name) {
		return nil
	}
	return frame.Fill(func(buf []byte) error { return b.store.Fetch(name, page, buf) })
}

// Writeback implements Backing to swap.
func (b *SwapBacking) Writeback(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	name := b.swapName(seg)
	return frame.WithData(func(buf []byte) error { return b.store.Store(name, page, buf) })
}
