package kernel

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"epcm/internal/phys"
)

// SegID identifies a segment. A kernel never hands an ID out twice, except
// that Restore hands out again the IDs of the segments it retires.
type SegID uint32

// WellKnownPhysSegment is the identifier of the boot-time segment that
// contains every page frame in the memory system in physical-address order
// (§2.1: "On initialization, the kernel creates a segment identified by a
// well-known segment identifier that includes all the page frames...").
const WellKnownPhysSegment SegID = 1

// pageEntry is the kernel's record of one page of a segment that currently
// has a physical frame: 8 bytes, no pointer, stored in place in the
// segment's page store. A page is one frame; a mapping reaches further only
// as a superpage extent (superpage.go). live marks a dense page-store slot
// that holds a page.
type pageEntry struct {
	pfn   phys.PFN
	flags PageFlags
	live  bool
}

// binding is one bound region (§2.1): addresses [start, start+pages) of the
// binding segment refer to [targetStart, targetStart+pages) of the target
// segment. A copy-on-write binding reads through to the target until the
// binding segment acquires its own page.
type binding struct {
	start, pages int64
	target       *Segment
	targetStart  int64
	cow          bool
}

func (b *binding) covers(page int64) bool {
	return page >= b.start && page < b.start+b.pages
}

// Segment is a variable-size address range of zero or more pages (§2.1).
// Segments are used for cached and mapped files, portions of program address
// spaces, and program address spaces themselves. Every page is one machine
// frame: the paper's multiple page sizes (§2.1) are modelled by extents.
//
// mu guards the mutable state (pages, bindings, manager, deleted); id,
// name, pageSize and restricted are immutable after creation. Only the
// concurrent scheduler takes it, through lock: the serial kernel's mapping
// table and one TLB are unsynchronized anyway, so it admits one goroutine
// at a time. When two segments must be locked together the kernel's
// lockPair orders them by ID.
type Segment struct {
	id       SegID
	name     string
	pageSize int // bytes: the machine frame size
	mu       sync.Mutex
	// manager is read on every fault delivery; it is an atomic pointer to
	// the kernel's record of the manager so the hot path reads it without
	// the segment lock (nil: no manager). Writers (registration, revocation
	// adoption) still hold mu to coordinate with each other.
	manager  atomic.Pointer[managerCell]
	pages    pageStore
	bindings []*binding // sorted by start
	// restricted segments accept MigratePages/ModifyPageFlags/data access
	// only from privileged credentials (the boot frame segment).
	restricted bool
	// staging marks kernel-held holding segments (the boot frame segment,
	// a manager's free-page segment) whose pages applications never Access;
	// cacheFill states what the concurrent scheduler makes of that.
	staging bool
	// identity marks the boot frame segment, where every resident page's
	// number equals its frame's PFN. New parks all frames that way and
	// every return-to-boot path (SPCM returns, revocation repossession,
	// segment-destruction reclaim) lands frames at To = PFN, so the
	// invariant holds for the segment's whole life. extentOrderFor uses it
	// to prove frame-run contiguity from page numbers alone.
	identity bool
	// named: some mapping-table or TLB entry has named this segment since
	// it was created. Set by cacheFill, never cleared. Guarded by mu.
	named   bool
	deleted bool
	// extents registers the segment's promoted superpage extents: base page
	// -> order (the extent spans 2^order base pages). nil until the first
	// promotion, so the per-page demote hooks cost one length check in the
	// (default) superpages-off configuration. Guarded by mu. Invariant:
	// a registered extent implies every covered page is present.
	extents map[int64]uint8
	// extOrderCount[o] counts live extents of order o, so the per-page
	// covering-extent probe (demoteCoveringLocked, ExtentAt) only hashes
	// the orders actually in use instead of every order up to the maximum.
	// Guarded by mu.
	extOrderCount [MaxExtentOrder + 1]uint32
	// tlb caches the segment's translations under the concurrent scheduler
	// (Kernel.tlbOf); nil until first used, and always under the serial
	// one. Guarded by mu.
	tlb    *tlb
	kernel *Kernel
}

// lock takes s.mu when the kernel runs the concurrent scheduler — the rule
// tlbOf follows — and does nothing under the serial one. k.concurrent is
// read, not cached: SetScheduler sets it quiescent and never clears it, so
// every segment, the boot segment included, sees the switch, and no lock is
// held across it to be unlocked unevenly. "Caller holds s.mu" in this
// package means the caller is between s.lock and s.unlock.
func (s *Segment) lock() {
	if s.kernel.concurrent {
		s.mu.Lock()
	}
}

// unlock releases what lock took.
func (s *Segment) unlock() {
	if s.kernel.concurrent {
		s.unlockMu()
	}
}

// unlockMu is out of line so unlock inlines: sync.Mutex.Unlock alone takes
// 76 of the inliner's 80, and the branch around it pushes unlock over.
//
//go:noinline
func (s *Segment) unlockMu() { s.mu.Unlock() }

// retireLocked empties a segment that is going away and marks it deleted,
// so every handle to it gets ErrNoSuchSegment. Its cache entries and frames
// are the caller's to settle. Caller holds s.mu.
func (s *Segment) retireLocked() {
	s.pages.clear()
	s.extents = nil // span entries die with the segment's cache state
	s.extOrderCount = [MaxExtentOrder + 1]uint32{}
	s.deleted = true
}

// MarkStaging flags s as a kernel-held staging segment (see the staging
// field). Call it right after creation, before any pages migrate in.
func (s *Segment) MarkStaging() { s.staging = true }

// managerCell is the kernel's one record of a manager, interned per kernel
// (Kernel.cellOf) at the manager's first registration and pointed to by
// every segment it manages: a fault reaches its manager and handling mutex
// by reading fields of the cell its segment already holds — no lookup keyed
// by the Manager interface happens from Access down. Revocation retires the
// cell; a manager registered again gets a fresh one.
type managerCell struct {
	m Manager
	// maint is m's optional idle hook (LaneMaintainer), resolved at
	// registration so a delivery pays no type assertion.
	maint LaneMaintainer
	// handling serializes the deliveries to m on a concurrent kernel
	// (Kernel.enter): a manager handles one fault at a time, as the paper's
	// manager process takes one message at a time. A serial kernel never
	// takes it.
	handling sync.Mutex
	// revoked marks a cell Revoke or Restore retired. It is set without
	// taking handling — a crash is found inside the manager's own handler,
	// whose delivery holds it — so a delivery that was waiting for the mutex
	// finds the mark and is lost.
	revoked atomic.Bool
}

// ID returns the segment identifier.
func (s *Segment) ID() SegID { return s.id }

// Name returns the segment's diagnostic name.
func (s *Segment) Name() string { return s.name }

// PageSize returns the segment's page size in bytes: one machine frame.
func (s *Segment) PageSize() int { return s.pageSize }

// Manager returns the segment's manager, or nil.
func (s *Segment) Manager() Manager {
	if c := s.manager.Load(); c != nil {
		return c.m
	}
	return nil
}

// Restricted reports whether the segment requires privileged credentials.
func (s *Segment) Restricted() bool { return s.restricted }

// PageCount returns the number of pages currently holding frames.
func (s *Segment) PageCount() int {
	s.lock()
	defer s.unlock()
	return s.pages.len()
}

// Pages returns the page numbers currently holding frames, sorted.
// It allocates; intended for managers' sweep algorithms and tests. Callers
// that only scan should prefer ForEachPage, which does not allocate.
func (s *Segment) Pages() []int64 {
	s.lock()
	defer s.unlock()
	return s.pages.pages()
}

// ForEachPage calls fn for every page currently holding a frame, in
// ascending page order, stopping early if fn returns false. It does not
// allocate; managers' sweep and grant algorithms use it on large segments.
// fn must not migrate pages of s other than the one it was called with.
//
// ForEachPage does NOT take the segment lock: callbacks routinely call
// locking accessors (FrameAt) or kernel operations on s, and the callers
// are the segment's own manager (or an adopter with the manager dead), so
// no one else is mutating the page map during the sweep.
func (s *Segment) ForEachPage(fn func(page int64) bool) {
	s.pages.forEach(func(page int64, _ *pageEntry) bool { return fn(page) })
}

// HasPage reports whether the segment holds a frame at page.
func (s *Segment) HasPage(page int64) bool {
	s.lock()
	defer s.unlock()
	return s.pages.has(page)
}

// AnyPresent reports whether any page in [base, base+n) is present — one
// lock acquisition instead of n HasPage calls. The extent page-in fast
// path uses it for its all-absent precheck.
func (s *Segment) AnyPresent(base, n int64) bool {
	s.lock()
	defer s.unlock()
	for i := int64(0); i < n; i++ {
		if s.pages.has(base + i) {
			return true
		}
	}
	return false
}

// Flags returns the page's flags; ok is false if the page has no frame.
func (s *Segment) Flags(page int64) (PageFlags, bool) {
	s.lock()
	defer s.unlock()
	e, ok := s.pages.get(page)
	if !ok {
		return 0, false
	}
	return e.flags, true
}

// findBinding returns the binding covering page, or nil.
func (s *Segment) findBinding(page int64) *binding {
	// Binary search over sorted, non-overlapping bindings.
	lo, hi := 0, len(s.bindings)
	for lo < hi {
		mid := (lo + hi) / 2
		b := s.bindings[mid]
		switch {
		case page < b.start:
			hi = mid
		case page >= b.start+b.pages:
			lo = mid + 1
		default:
			return b
		}
	}
	return nil
}

// resolved is the outcome of resolving a (segment, page) reference through
// bound regions to the segment that should supply the frame.
type resolved struct {
	seg  *Segment   // owning segment after following bindings
	page int64      // page within seg
	e    *pageEntry // page's entry in seg, nil if absent; dead once seg unlocks
	cow  bool       // true if the reference crossed a copy-on-write binding
	// cowSeg/cowPage identify the front segment and page where a private
	// copy must materialize when cow && the access is a write.
	cowSeg  *Segment
	cowPage int64
}

// resolve follows bindings from (s, page) to the segment whose page entry
// (present or not) backs the reference. The first copy-on-write binding
// crossed is recorded: a write must stop there and materialize a private
// page in the binding (front) segment.
//
// A present page in a binding segment shadows its bindings, which is what
// makes a materialized COW page take precedence over the source.
//
// Locks are taken hop by hop — one segment at a time, never two — so
// resolution cannot deadlock against pair-ordered migrations. resolve
// returns with the final hop's segment still locked and its entry read, so
// the caller acts on exactly what resolve saw and unlocks r.seg itself; on
// an error nothing is held. A deleted entry segment, or a deleted final
// hop, is ErrNoSuchSegment.
func resolve(s *Segment, page int64) (resolved, error) {
	r := resolved{seg: s, page: page}
	for depth := 0; ; depth++ {
		if depth > 16 {
			return r, fmt.Errorf("kernel: binding chain deeper than 16 at segment %q page %d", s.name, page)
		}
		r.seg.lock()
		e, present := r.seg.pages.get(r.page)
		var b *binding
		if !present {
			b = r.seg.findBinding(r.page)
		}
		if r.seg.deleted && (depth == 0 || b == nil) {
			// A dead entry segment fails whatever it binds, and a dead final
			// hop has no page or manager to give; the check rides on the
			// lock this hop takes anyway.
			r.seg.unlock()
			return r, ErrNoSuchSegment
		}
		if b == nil {
			r.e = e // nil: missing page in r.seg, the fault target
			return r, nil
		}
		r.seg.unlock()
		if b.cow && !r.cow {
			r.cow = true
			r.cowSeg = r.seg
			r.cowPage = r.page
		}
		r.page = b.targetStart + (r.page - b.start)
		r.seg = b.target
	}
}

// addBinding inserts a binding keeping the slice sorted; rejects overlap.
// The caller (BindRegion) holds s.mu.
func (s *Segment) addBinding(nb *binding) error {
	for _, b := range s.bindings {
		if nb.start < b.start+b.pages && b.start < nb.start+nb.pages {
			return fmt.Errorf("%w: [%d,%d) vs [%d,%d) in segment %q",
				ErrOverlap, nb.start, nb.start+nb.pages, b.start, b.start+b.pages, s.name)
		}
	}
	s.bindings = append(s.bindings, nb)
	sort.Slice(s.bindings, func(i, j int) bool { return s.bindings[i].start < s.bindings[j].start })
	return nil
}

// FrameAt returns the physical frame backing page, or nil. Managers
// use it to fill page data in their free-page segments (which they have
// mapped into their own address spaces).
func (s *Segment) FrameAt(page int64) *phys.Frame {
	s.lock()
	defer s.unlock()
	e, ok := s.pages.get(page)
	if !ok {
		return nil
	}
	return s.kernel.mem.Frame(e.pfn)
}

// AppendPFNs appends the frame number backing each listed page
// to dst (phys.NoFrame for absent pages) under one acquisition of the
// segment lock — the batched form of FrameAt, for grant paths that would
// otherwise lock the segment once per page.
func (s *Segment) AppendPFNs(dst []phys.PFN, pages []int64) []phys.PFN {
	s.lock()
	defer s.unlock()
	for _, p := range pages {
		pfn := phys.NoFrame
		if e, ok := s.pages.get(p); ok {
			pfn = e.pfn
		}
		dst = append(dst, pfn)
	}
	return dst
}

// String formats the segment for diagnostics. It deliberately takes no
// lock: error paths format segments while holding their locks.
func (s *Segment) String() string {
	return fmt.Sprintf("segment %q (id=%d, %d pages of %d bytes)", s.name, s.id, s.pages.len(), s.pageSize)
}
