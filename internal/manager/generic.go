package manager

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/phys"
	"epcm/internal/storage"
)

// ErrNoMemory reports that a fault could not be served: the free-page
// segment is empty, the frame source granted nothing, and nothing could be
// reclaimed.
var ErrNoMemory = errors.New("manager: no page frames available")

// ErrRetriesExhausted reports that a transient storage error persisted
// through the manager's full retry budget. The last storage error is
// wrapped, so errors.Is still matches storage.ErrTransient/ErrInjected.
var ErrRetriesExhausted = errors.New("manager: storage retries exhausted")

// FrameSource is where a manager obtains page frames beyond its initial
// allocation and returns surplus ones — the System Page Cache Manager in a
// full system (§2.4). It is an interface here so managers can also run from
// a fixed pool in tests and small experiments.
type FrameSource interface {
	// RequestFrames migrates up to n frames satisfying the constraint into
	// slots of g's free-page segment reserved with g.ReserveSlots, closes
	// the reservation with g.Granted, and reports how many were granted.
	// Zero with nil error means the request was refused or deferred.
	RequestFrames(g *Generic, n int, constraint phys.Range) (int, error)
	// ReturnFrames takes the frames at the given free-segment slots back.
	ReturnFrames(g *Generic, slots []int64) error
}

// resKey identifies a resident page a manager placed.
type resKey struct {
	seg  *kernel.Segment
	page int64
}

// Stats counts a manager's activity.
type Stats struct {
	Faults       int64 // fault events delivered
	Fills        int64 // pages filled from backing store
	FastRefaults int64 // pages recovered from the free segment without I/O
	Writebacks   int64 // dirty pages written to backing store on reclaim
	Discards     int64 // dirty-but-discardable pages dropped without I/O
	Reclaims     int64 // pages migrated back to the free segment
	Grants       int64 // frames obtained from the frame source
	Returns      int64 // frames returned to the frame source
	MigrateCalls int64 // MigratePages invocations issued by this manager
	Retries      int64 // transient storage errors retried
}

// Config specializes a Generic manager. Only Name and Backing are
// required; everything else has workable defaults.
type Config struct {
	// Name labels the manager.
	Name string
	// Delivery selects same-process or separate-process fault handling.
	Delivery kernel.DeliveryMode
	// Backing supplies and persists page data: its Fill is the paper's
	// specializable "page fill routine", run on every page-in.
	Backing Backing
	// Source supplies frames beyond the initial pool; nil means the
	// manager lives off its initial allocation and local reclamation.
	Source FrameSource
	// Constraint, when set, restricts which physical frames may serve a
	// fault (page coloring, NUMA placement).
	Constraint func(f kernel.Fault) phys.Range
	// Protection, when set, replaces the default protection-fault handling
	// (which simply enables the faulted access mode).
	Protection func(f kernel.Fault) error
	// Policy is the paper's specializable "page replacement selection
	// routine": victim selection plus whatever recency/frequency state it
	// keeps, over every page the manager holds. Nil means the §2.2 clock. A
	// Policy instance is stateful and must not be shared between managers;
	// a segment that needs a policy of its own gets a manager of its own.
	Policy Policy
	// IgnoreDiscardable disables the discardable-page optimization so its
	// benefit can be measured (ablation).
	IgnoreDiscardable bool
	// RequestBatch is how many frames to ask the source for when the free
	// list runs dry (default 8).
	RequestBatch int
	// LanePrefetch, when positive, tops the free list back up to this many
	// frames once it falls below a quarter of it, after each delivery on a
	// concurrent kernel (the kernel.LaneMaintainer hook, still inside the
	// delivery), moving frame-source requests off the fault path. A serial
	// kernel never calls the hook, and zero disables it, keeping
	// virtual-time totals identical to the paper's demand-request
	// behaviour — the reproduce harness relies on that.
	LanePrefetch int
	// ExtentOrder, when positive, activates the superpage plane (super.go)
	// at extents of 2^ExtentOrder base pages: whole-extent page-in over
	// contiguous frame runs, density-tracked promotion, and extent-first
	// reclamation. It only takes effect on a kernel booted with
	// kernel.Config.Superpages; zero (the default) keeps every fault-path
	// hook to one integer compare, preserving the golden cost structure
	// exactly.
	ExtentOrder int
	// MaxRetries bounds how many times a transient storage error
	// (storage.ErrTransient) is retried on the fill, writeback and swap
	// paths, after a virtual-time delay of retryBackoff that doubles per
	// attempt. 0 disables retrying: every storage error propagates at once.
	MaxRetries int
}

// retryBackoff is the virtual-time delay before a manager's first retry of
// a transient storage error; it doubles per attempt.
const retryBackoff = time.Millisecond

// Generic is the generic segment manager of §2.2. It maintains a free-page
// segment, serves faults by migrating frames from it, reclaims frames with
// a clock algorithm over the pages it has placed, and exchanges frames with
// a FrameSource.
type Generic struct {
	k     *kernel.Kernel
	cfg   Config
	free  *kernel.Segment
	slots slotLedger // the free-page segment's bookkeeping (slots.go)

	resident []resKey       // pages this manager has placed, clock order
	resIdx   *residentIndex // page -> index in resident

	// host is the reusable PolicyHost adapter handed to every call of
	// cfg.Policy.
	host policyHost

	// nResident mirrors len(resident) (as slots.nListed does the free list)
	// so the SPCM can read held-page counts (settle, Enforce sizing) while
	// the manager's own goroutine mutates its lists.
	nResident atomic.Int64

	managed map[kernel.SegID]*kernel.Segment
	stats   Stats

	// Superpage plane (super.go; all nil/zero unless Config.ExtentOrder>0).
	extents         map[resKey]*extentState // extent base -> density state
	promotedExt     []resKey                // promoted extents, promotion order
	superStats      SuperStats
	extScratch      []int64
	attrScratch     []kernel.PageAttribute
	runRangeScratch [1]kernel.PageRange // extent fill's single-range batch
	// extStatePool recycles extentState structs (one churns per extent
	// fill) so the fast path stays off the allocator.
	extStatePool []*extentState
	runCands     []int64 // PageInContiguous's sorted free-slot scratch
}

var _ kernel.Manager = (*Generic)(nil)

// ErrSkipFill may be returned by Backing.Fill to indicate the page's
// contents are already correct; the manager maps the page without counting
// a fill.
var ErrSkipFill = errors.New("manager: fill intentionally skipped")

// NewGeneric creates a manager with its free-page segment. The pool starts
// empty; seed it with a FrameSource or Kernel migrations plus Adopt.
func NewGeneric(k *kernel.Kernel, cfg Config) (*Generic, error) {
	if cfg.Name == "" {
		cfg.Name = "generic-manager"
	}
	if cfg.Backing == nil {
		cfg.Backing = ZeroFill{}
	}
	if cfg.RequestBatch <= 0 {
		cfg.RequestBatch = 8
	}
	free, err := k.CreateSegment(cfg.Name+".free", 1)
	if err != nil {
		return nil, err
	}
	free.MarkStaging() // holding pen: applications never Access these pages
	if cfg.Policy == nil {
		cfg.Policy = NewClockPolicy()
	}
	g := &Generic{
		k:       k,
		cfg:     cfg,
		free:    free,
		slots:   slotLedger{free: free, mem: k.Mem(), runLen: 1 << uint(cfg.ExtentOrder), recall: make(map[resKey]int)},
		resIdx:  newResidentIndex(),
		managed: make(map[kernel.SegID]*kernel.Segment),
	}
	g.host.g = g
	return g, nil
}

// ManagerName implements kernel.Manager.
func (g *Generic) ManagerName() string { return g.cfg.Name }

// Delivery implements kernel.Manager.
func (g *Generic) Delivery() kernel.DeliveryMode { return g.cfg.Delivery }

// FreeSegment returns the manager's free-page segment.
func (g *Generic) FreeSegment() *kernel.Segment { return g.free }

// FreeFrames reports the number of frames in the free-page segment. It is
// safe to call from other goroutines (the SPCM's settle and enforcement).
func (g *Generic) FreeFrames() int { return int(g.slots.nListed.Load()) }

// ResidentPages reports how many pages the manager currently has placed.
// Like FreeFrames it is safe to call from other goroutines.
func (g *Generic) ResidentPages() int { return int(g.nResident.Load()) }

// Stats returns a snapshot of activity counters.
func (g *Generic) Stats() Stats { return g.stats }

// ResetStats zeroes the activity counters (bookkeeping state is kept).
func (g *Generic) ResetStats() { g.stats = Stats{} }

// retryBacking applies the manager's retry budget to a backing-store
// operation that just failed with err: a transient error
// (storage.ErrTransient) is retried up to MaxRetries times with exponential
// virtual-time backoff; a permanent error propagates immediately and
// unchanged. When the budget runs out the last transient error is wrapped
// in ErrRetriesExhausted — a typed error, never a silently corrupted frame.
// Callers run the first attempt themselves and only reach here on failure,
// so the no-error fast path never constructs the retry closure.
func (g *Generic) retryBacking(err error, op func() error) error {
	if err == nil || g.cfg.MaxRetries == 0 {
		return err
	}
	backoff := retryBackoff
	for attempt := 0; attempt < g.cfg.MaxRetries; attempt++ {
		if !errors.Is(err, storage.ErrTransient) {
			return err
		}
		g.k.Clock().Advance(backoff)
		backoff *= 2
		g.stats.Retries++
		if err = op(); err == nil {
			return nil
		}
	}
	if errors.Is(err, storage.ErrTransient) {
		return fmt.Errorf("%w (manager %s, %d attempts): %w",
			ErrRetriesExhausted, g.cfg.Name, g.cfg.MaxRetries+1, err)
	}
	return err
}

// AdoptResident registers every page currently present in seg as resident
// under this manager — the bookkeeping half of adopting a revoked manager's
// segment. The frames are already mapped; the adopting manager just needs
// them in its clock so it can reclaim them later.
func (g *Generic) AdoptResident(seg *kernel.Segment) {
	seg.ForEachPage(func(page int64) bool {
		key := resKey{seg: seg, page: page}
		if _, ok := g.resIdx.get(key); !ok {
			g.addResident(key)
		}
		return true
	})
}

// Manage registers the manager as a segment's manager.
func (g *Generic) Manage(seg *kernel.Segment) {
	g.k.SetSegmentManager(seg, g)
	g.managed[seg.ID()] = seg
}

// CreateManagedSegment creates a segment and manages it.
func (g *Generic) CreateManagedSegment(name string) (*kernel.Segment, error) {
	seg, err := g.k.CreateSegment(name, 1)
	if err != nil {
		return nil, err
	}
	g.Manage(seg)
	return seg, nil
}

// ReserveSlots and Granted are the grant protocol, the one door into the
// free-page segment for a frame source: reserve n slot numbers (appended to
// dst), migrate frames onto them, and close the reservation with Granted —
// both from the manager's own delivery context.
func (g *Generic) ReserveSlots(dst []int64, n int) []int64 {
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, g.slots.reserve1())
	}
	return dst
}

// Granted closes a reservation. With a nil error frames now occupy slots:
// they join the free list, or stay parked as whole runs when the manager
// itself has a run refill in flight. With an error no frame reached slots
// and the numbers are receivable again; a source whose migration stopped
// part-way closes the two halves separately.
func (g *Generic) Granted(slots []int64, err error) {
	if err == nil {
		g.stats.Grants += int64(len(slots))
	}
	g.slots.close(slots, err)
}

// HandleFault and PageIn — the fault pipeline — are in fault.go.

// acquireSlot picks a free slot whose frame satisfies the constraint and
// returns its free-list index, asking the frame source and then local
// reclamation for more — three rounds — while no listed frame admits. When
// it finds none, the error says why: the source's or the reclaim's own,
// else ErrNoMemory. Unassociated frames come first; a fast-refault
// association is broken only if needed, and only for the slot returned.
func (g *Generic) acquireSlot(constraint phys.Range) (int, error) {
	// The unconstrained case — every fault without a Constraint hook — skips
	// the per-slot frame resolution entirely: any frame admits.
	unconstrained := !constraint.Constrained()
	want := max(1, g.cfg.RequestBatch)
	for round := 0; ; round++ {
		for _, recall := range [2]bool{false, true} {
			for i := range g.slots.listed {
				if fs := &g.slots.listed[i]; fs.recall == recall && (unconstrained || constraint.Admits(fs.frame)) {
					g.slots.forget(i)
					return i, nil
				}
			}
		}
		if round == 3 {
			break
		}
		if g.cfg.Source != nil {
			granted, err := g.cfg.Source.RequestFrames(g, want, constraint)
			if err != nil {
				return -1, err
			}
			if granted > 0 {
				continue
			}
		}
		got, err := g.Reclaim(want, constraint)
		if err != nil {
			return -1, err
		}
		if got == 0 {
			break
		}
	}
	return -1, fmt.Errorf("%w (manager %s, constraint %v)", ErrNoMemory, g.cfg.Name, constraint)
}

func (g *Generic) addResident(key resKey) {
	g.resIdx.put(key, len(g.resident))
	g.resident = append(g.resident, key)
	g.nResident.Add(1)
	g.cfg.Policy.Insert(&g.host, PageID{Seg: key.seg, Page: key.page})
	if g.superOn() {
		g.extAdd(key)
	}
}

// addResidentRun is addResident for pages [base, base+n) of one segment;
// the density hook is left to the caller.
func (g *Generic) addResidentRun(seg *kernel.Segment, base, n int64) {
	p := g.cfg.Policy
	for page := base; page < base+n; page++ {
		key := resKey{seg: seg, page: page}
		g.resIdx.put(key, len(g.resident))
		g.resident = append(g.resident, key)
		p.Insert(&g.host, PageID{Seg: seg, Page: page})
	}
	g.nResident.Add(n)
}

func (g *Generic) removeResident(key resKey) {
	i, ok := g.resIdx.get(key)
	if !ok {
		return
	}
	g.nResident.Add(-1)
	last := len(g.resident) - 1
	g.resident[i] = g.resident[last]
	g.resident = g.resident[:last]
	g.resIdx.del(key)
	if i < len(g.resident) {
		g.resIdx.put(g.resident[i], i)
	}
	g.cfg.Policy.Remove(&g.host, PageID{Seg: key.seg, Page: key.page})
	if g.cfg.ExtentOrder > 0 {
		g.extRemove(key)
	}
}

// Policy returns the manager's replacement policy.
func (g *Generic) Policy() Policy { return g.cfg.Policy }

// policyTouch feeds a manager-visible access signal (a protection fault on
// a resident page) to the policy.
func (g *Generic) policyTouch(key resKey) {
	if _, ok := g.resIdx.get(key); !ok {
		return
	}
	g.cfg.Policy.Touch(&g.host, PageID{Seg: key.seg, Page: key.page})
}

// Reclaim reclaims until n frames satisfying the constraint have been
// migrated back to the free-page segment. The manager's replacement Policy
// picks every victim (the default clock of §2.2: referenced pages get a
// second chance, pinned pages are skipped) and dirty pages are written back
// unless marked discardable. It returns the number reclaimed.
func (g *Generic) Reclaim(n int, constraint phys.Range) (int, error) {
	reclaimed := 0
	g.host.constraint = constraint
	// Extent-first: evict whole promoted extents before per-page selection
	// (constrained passes skip this — extent frames are wherever the run
	// was granted). No-op unless the superpage plane is active.
	if g.superOn() && !constraint.Constrained() && len(g.promotedExt) > 0 {
		m, err := g.reclaimExtents(n)
		reclaimed += m
		if err != nil || reclaimed >= n {
			return reclaimed, err
		}
	}
	p := g.cfg.Policy
	for reclaimed < n {
		id, flags, ok, err := p.Victim(&g.host)
		if err != nil || !ok {
			return reclaimed, err
		}
		key := resKey{seg: id.Seg, page: id.Page}
		// Conformance teeth: a policy that names a non-resident or pinned
		// victim is broken; fail loudly instead of corrupting the free list.
		if _, res := g.resIdx.get(key); !res {
			return reclaimed, fmt.Errorf("manager %s: policy %s chose non-resident page %d of %v",
				g.cfg.Name, p.PolicyName(), id.Page, id.Seg)
		}
		if flags.Has(kernel.FlagPinned) {
			return reclaimed, fmt.Errorf("manager %s: policy %s chose pinned page %d of %v",
				g.cfg.Name, p.PolicyName(), id.Page, id.Seg)
		}
		if err := g.evict(key, flags); err != nil {
			return reclaimed, err
		}
		reclaimed++
	}
	return reclaimed, nil
}

// evict writes back (or discards) one page and migrates its frame to the
// free segment, remembering the association for fast re-fault. A discarded
// page keeps no association: its contents are dead, so a re-fault must go
// back through the fill path.
func (g *Generic) evict(key resKey, flags kernel.PageFlags) error {
	// The frame rides along with the migration below; capturing it here
	// keeps the free-slot entry's frame cache warm for the next fill.
	frame := key.seg.FrameAt(key.page)
	discarded := false
	if flags.Has(kernel.FlagDirty) {
		if flags.Has(kernel.FlagDiscardable) && !g.cfg.IgnoreDiscardable {
			g.stats.Discards++
			discarded = true
		} else {
			err := g.cfg.Backing.Writeback(key.seg, key.page, frame)
			if err != nil {
				if err = g.retryBacking(err, func() error {
					return g.cfg.Backing.Writeback(key.seg, key.page, frame)
				}); err != nil {
					return err
				}
			}
			g.stats.Writebacks++
		}
	}
	err := g.migrateOut(key, frame, kernel.FlagRW|kernel.FlagDirty|kernel.FlagReferenced|kernel.FlagDiscardable, !discarded)
	if err == nil {
		g.stats.Reclaims++
	}
	return err
}

// migrateOut is the grant protocol's one-slot form, for the manager's own
// evictions: a resident page's frame moves onto a reserved slot and is
// listed there, remembering the page when recall is set. A refused
// migration hands the reservation back.
func (g *Generic) migrateOut(key resKey, frame *phys.Frame, clear kernel.PageFlags, recall bool) error {
	slot := g.slots.reserve1()
	g.stats.MigrateCalls++
	if err := g.k.MigratePages(kernel.AppCred, key.seg, g.free, key.page, slot, 1, 0, clear); err != nil {
		g.slots.release(slot)
		return err
	}
	g.removeResident(key)
	g.slots.list(freeSlot{slot: slot, frame: frame, from: key, recall: recall})
	return nil
}

// EvictPage forcibly reclaims one specific page (writeback/discard rules as
// in Reclaim, without reference checks). Application-specific managers use
// it for policies like whole-structure discards.
func (g *Generic) EvictPage(seg *kernel.Segment, page int64) error {
	key := resKey{seg: seg, page: page}
	if _, ok := g.resIdx.get(key); !ok {
		return fmt.Errorf("manager %s: page %d of %v not resident", g.cfg.Name, page, seg)
	}
	flags, _ := seg.Flags(page)
	return g.evict(key, flags)
}

// ReturnFreeFrames gives up to n unassociated free frames back to the frame
// source, reporting how many were returned.
func (g *Generic) ReturnFreeFrames(n int) (int, error) {
	if g.cfg.Source == nil {
		return 0, nil
	}
	g.slots.flush() // magazine frames are returnable like any free slot
	// Unassociated frames first; if they are not enough, break associations.
	taken := make([]freeSlot, 0, max(0, min(n, len(g.slots.listed))))
	for i := 0; i < len(g.slots.listed) && len(taken) < n; {
		if !g.slots.listed[i].recall {
			taken = append(taken, g.slots.take(i))
			continue // take swapped a new element into i
		}
		i++
	}
	for len(g.slots.listed) > 0 && len(taken) < n {
		taken = append(taken, g.slots.take(0))
	}
	if len(taken) == 0 {
		return 0, nil
	}
	slots := make([]int64, len(taken))
	for i, fs := range taken {
		slots[i] = fs.slot
	}
	if err := g.cfg.Source.ReturnFrames(g, slots); err != nil {
		// The frames never left the free segment: list them again, recall
		// associations included.
		for _, fs := range taken {
			g.slots.list(fs)
		}
		return 0, err
	}
	g.slots.release(slots...)
	g.stats.Returns += int64(len(slots))
	return len(slots), nil
}

// SegmentDeleted implements kernel.Manager: reclaim all frames of the
// segment into the free list, unassociated (the data is dead). The whole
// segment comes home as one batched migration; on a batch error it falls
// back to page-at-a-time and keeps whatever it can.
func (g *Generic) SegmentDeleted(s *kernel.Segment) {
	pages := s.Pages()
	if len(pages) > 0 {
		const clear = kernel.FlagRW | kernel.FlagDirty | kernel.FlagReferenced
		slots := g.ReserveSlots(nil, len(pages))
		g.stats.MigrateCalls++
		batchErr := g.k.MigratePagesBatch(kernel.AppCred, s, g.free, kernel.CoalesceRanges(pages, slots), 0, clear)
		if batchErr == nil {
			g.slots.close(slots, nil)
		}
		for i, p := range pages {
			if batchErr != nil {
				// Page at a time; the kernel will sweep anything we leave.
				g.stats.MigrateCalls++
				err := g.k.MigratePages(kernel.AppCred, s, g.free, p, slots[i], 1, 0, clear)
				if g.slots.close(slots[i:i+1], err); err != nil {
					continue
				}
			}
			g.removeResident(resKey{seg: s, page: p})
		}
	}
	g.resIdx.dropSeg(s)
	g.extDropSeg(s)
	delete(g.managed, s.ID())
}

// DropSegmentPages evicts every resident page of one segment without
// deleting the segment — the "delete whole segments of temporary data"
// policy of §2.2, and the index-discard move of the database experiment.
// Dirty pages follow the usual writeback/discard rules.
func (g *Generic) DropSegmentPages(seg *kernel.Segment) error {
	for _, p := range seg.Pages() {
		key := resKey{seg: seg, page: p}
		if _, ok := g.resIdx.get(key); !ok {
			continue
		}
		flags, _ := seg.Flags(p)
		if err := g.evict(key, flags); err != nil {
			return err
		}
	}
	return nil
}

// EnsureFree tries to bring the count of unassociated free frames up to n
// by asking the frame source and then reclaiming. It is best-effort: the
// caller must still handle allocation failure.
func (g *Generic) EnsureFree(n int) error {
	have := 0
	for _, fs := range g.slots.listed {
		if !fs.recall {
			have++
		}
	}
	if have >= n {
		return nil
	}
	if g.cfg.Source != nil {
		granted, err := g.cfg.Source.RequestFrames(g, max(n-have, g.cfg.RequestBatch), phys.AnyFrame())
		if err != nil {
			return err
		}
		have += granted // a granted frame is listed unassociated
	}
	// Break fast-refault associations before reclaiming more; each one
	// broken is one more unassociated slot, so the count is kept, not retaken.
	for i := 0; i < len(g.slots.listed) && have < n; i++ {
		if g.slots.listed[i].recall {
			g.slots.forget(i)
			have++
		}
	}
	if have >= n {
		return nil
	}
	_, err := g.Reclaim(n-have, phys.AnyFrame())
	return err
}

// RequestFreshRun asks the frame source for n frames delivered into
// brand-new consecutive free-segment slots, guaranteeing a contiguous slot
// run for PageInContiguous regardless of how fragmented the recycled slot
// space is. It reports how many frames were granted.
func (g *Generic) RequestFreshRun(n int) (int, error) {
	if g.cfg.Source == nil {
		return 0, nil
	}
	g.slots.planFresh()
	defer g.slots.endPlan()
	return g.cfg.Source.RequestFrames(g, n, phys.AnyFrame())
}

// PageInContiguous serves a run of n missing pages [startPage, startPage+n)
// of seg with a single MigratePages invocation, when the free-page segment
// holds n frames at consecutive slot numbers — the default manager's 16 KB
// append allocation maps four pages with one kernel operation. When no
// contiguous slot run exists it reports handled=false without side effects,
// and the caller falls back to per-page PageIn.
func (g *Generic) PageInContiguous(seg *kernel.Segment, startPage, n int64) (bool, error) {
	if n <= 1 {
		return false, nil
	}
	// Sort the unassociated free slots by slot number and take the
	// lowest-numbered run of n consecutive ones, so the choice depends on
	// which slots are free and never on the order they were freed in.
	cands := g.runCands[:0]
	for _, fs := range g.slots.listed {
		if !fs.recall {
			cands = append(cands, fs.slot)
		}
	}
	g.runCands = cands
	slices.Sort(cands)
	start := int64(-1)
	for lo, hi := 0, 1; hi <= len(cands) && start < 0; hi++ {
		if hi-lo == int(n) {
			start = cands[lo]
		} else if hi < len(cands) && cands[hi] != cands[hi-1]+1 {
			lo = hi
		}
	}
	if start < 0 || seg.AnyPresent(startPage, n) {
		return false, nil
	}
	g.stats.MigrateCalls++
	if err := g.k.MigratePages(kernel.AppCred, g.free, seg, start, startPage, n,
		kernel.FlagRW, kernel.FlagReferenced|kernel.FlagDirty); err != nil {
		return false, err
	}
	// Empty the consumed slots in slot order, then record residency.
	for s := start; s < start+n; s++ {
		g.slots.unlistSlot(s)
	}
	g.addResidentRun(seg, startPage, n)
	if g.superOn() {
		for p := startPage; p < startPage+n; p++ {
			g.extAdd(resKey{seg: seg, page: p})
		}
	}
	return true, nil
}

// PresizeResident sizes the resident bookkeeping for an expected working
// set of n pages: the clock list's capacity and the resident index's dense
// prefix are allocated up front, so a run that faults n pages in never
// grows either on the fault path. Purely a capacity hint — behaviour is
// unchanged.
func (g *Generic) PresizeResident(n int) {
	if n <= 0 {
		return
	}
	if cap(g.resident) < n {
		grown := make([]resKey, len(g.resident), n)
		copy(grown, g.resident)
		g.resident = grown
	}
	g.resIdx.presize(n)
}

var _ kernel.LaneMaintainer = (*Generic)(nil)

// LaneIdle implements kernel.LaneMaintainer: after a delivery on a
// concurrent kernel, when Config.LanePrefetch is set, top the free list
// back up from the frame source so the next fault burst allocates without a
// grant round-trip on its critical path. Best-effort — a refused or failed
// request just leaves the demand-paging path to do what it always did.
func (g *Generic) LaneIdle() {
	want := g.cfg.LanePrefetch
	if want <= 0 || g.cfg.Source == nil {
		return
	}
	have := g.FreeFrames()
	if have*4 >= want {
		return // above the low-water mark (a quarter of the target)
	}
	g.cfg.Source.RequestFrames(g, want-have, phys.AnyFrame()) //nolint:errcheck // best-effort prefetch
}
