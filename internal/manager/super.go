package manager

import (
	"errors"

	"epcm/internal/kernel"
)

// The manager half of the superpage plane (kernel/superpage.go): a density
// tracker that promotes an aligned extent of 2^ExtentOrder base pages once
// every page is resident and referenced, a contiguous page-in fast path
// that faults a whole absent extent in with one batched kernel call (which
// the kernel applies as a single extent: one span mapping entry, one
// SuperpageOp charge), and extent-first reclamation so a promoted extent is
// evicted whole instead of decaying page by page.
//
// Everything here is gated on Config.ExtentOrder > 0 AND the manager's
// kernel running the plane (kernel.Config.Superpages); with either off, the
// hooks in generic.go cost one integer compare and the golden fault paths
// are untouched. Demotion bookkeeping mirrors the kernel: any migration that
// removes a covered page demotes the extent inside the kernel
// (demoteCoveringLocked), so the tracker only records that it happened —
// it never issues a second (charged) DemoteExtent call.

// ContiguousSource is an optional FrameSource extension: a source that can
// grant a physically contiguous, naturally aligned run of n frames (the
// SPCM's RequestContiguous, for large pages).
type ContiguousSource interface {
	FrameSource
	RequestContiguous(g *Generic, n int) (int, error)
}

// ContiguousRunSource is an optional ContiguousSource extension: a source
// that can grant up to count aligned runs of n frames in one round trip
// (the SPCM's RequestContiguousRuns). The extent page-in fast path is only
// available when the manager's source implements it: it refills the run
// magazine, amortizing the grant overhead — one account settle and one
// batched boot-segment migration — over count extents.
type ContiguousRunSource interface {
	ContiguousSource
	RequestContiguousRuns(g *Generic, n, count int) (int, error)
}

// extentMagazineRuns is how many extent runs the fill path requests per
// magazine refill. Sized so the per-grant overhead fades while the hoard
// stays small: at order 4 a full magazine withholds 128 frames per manager.
const extentMagazineRuns = 8

// ExtentPolicy is an optional Policy extension: a policy implementing it is
// consulted for whole-extent victims before per-page selection when the
// superpage plane is active. bases lists the promoted extent bases owned by
// the policy, in promotion order; the policy returns an index into bases,
// or -1 to decline (per-page selection then proceeds).
type ExtentPolicy interface {
	VictimExtent(h PolicyHost, bases []PageID, order int) int
}

// SuperStats counts the manager's superpage-plane activity.
type SuperStats struct {
	Promotions  int64 // extents promoted (density tracker + extent page-ins)
	Demotions   int64 // promoted extents demoted (any covered page left)
	ExtentFills int64 // whole extents paged in via the contiguous fast path
	Denied      int64 // promotion attempts abandoned (fragmented frames)
}

// SuperStats returns a snapshot of the superpage-plane counters.
func (g *Generic) SuperStats() SuperStats { return g.superStats }

// extentState tracks the residency density of one aligned extent.
type extentState struct {
	resident int  // covered base pages currently resident
	promoted bool // extent is live in the kernel
	denied   bool // promotion abandoned until the extent fully drains
}

// superOn reports whether the superpage plane is active for this manager.
// The ExtentOrder check goes first so golden-mode managers (ExtentOrder 0)
// never ask the kernel.
func (g *Generic) superOn() bool {
	return g.cfg.ExtentOrder > 0 && g.k.Superpages()
}

// extentSpan returns the extent length in pages and the base covering page.
func (g *Generic) extentSpan(page int64) (n, base int64) {
	n = int64(1) << uint(g.cfg.ExtentOrder)
	return n, page &^ (n - 1)
}

// extAdd is the addResident hook: bump the covering extent's density and
// promote when the extent fills. Promotion is confirmed against the kernel
// (one batched attribute read): every page present, and every page but the
// just-added one referenced — density of use, not just of residency. A
// promotion refused for fragmented frames (ErrNotContiguous) marks the
// extent denied until it fully drains, so the fault path never re-pays the
// attempt per page.
func (g *Generic) extAdd(key resKey) {
	if key.seg.FramesPerPage() != 1 {
		return
	}
	n, base := g.extentSpan(key.page)
	ekey := resKey{seg: key.seg, page: base}
	st := g.extents[ekey]
	if st == nil {
		st = g.newExtentState(ekey)
	}
	st.resident++
	if st.promoted || st.denied || int64(st.resident) < n {
		return
	}
	if g.extScratch == nil {
		g.extScratch = make([]int64, 0, n)
	}
	pages := g.extScratch[:0]
	for i := int64(0); i < n; i++ {
		pages = append(pages, base+i)
	}
	g.extScratch = pages
	attrs, err := g.k.GetPageAttributesBatch(key.seg, pages, g.attrScratch[:0])
	g.attrScratch = attrs
	if err != nil {
		return
	}
	for _, a := range attrs {
		if !a.Present {
			return
		}
		if a.Page != key.page && !a.Flags.Has(kernel.FlagReferenced) {
			return // not dense in use yet; retry on the next density change
		}
	}
	switch err := g.k.PromoteExtent(kernel.AppCred, key.seg, base, g.cfg.ExtentOrder); {
	case err == nil:
		st.promoted = true
		g.promotedExt = append(g.promotedExt, ekey)
		g.superStats.Promotions++
	case errors.Is(err, kernel.ErrNotContiguous), errors.Is(err, kernel.ErrOverlap):
		st.denied = true
		g.superStats.Denied++
	}
}

// extRemove is the removeResident hook: a covered page left residency. If
// the extent was promoted the kernel has already demoted it (every removal
// path runs through a migration, whose demoteCoveringLocked hook fires
// first); record the demotion and drop the promotion-order entry. When the
// last page drains, the extent's state — including a denied verdict — is
// forgotten, so a future re-fault starts fresh.
func (g *Generic) extRemove(key resKey) {
	if len(g.extents) == 0 {
		return
	}
	_, base := g.extentSpan(key.page)
	ekey := resKey{seg: key.seg, page: base}
	st := g.extents[ekey]
	if st == nil {
		return
	}
	st.resident--
	if st.promoted {
		st.promoted = false
		g.superStats.Demotions++
		for i, k := range g.promotedExt {
			if k == ekey {
				g.promotedExt = append(g.promotedExt[:i], g.promotedExt[i+1:]...)
				break
			}
		}
	}
	if st.resident <= 0 {
		delete(g.extents, ekey)
		g.extStatePool = append(g.extStatePool, st)
	}
}

// extDropSeg forgets every extent of one segment (segment deleted).
func (g *Generic) extDropSeg(seg *kernel.Segment) {
	if len(g.extents) == 0 {
		return
	}
	for k, st := range g.extents {
		if k.seg == seg {
			delete(g.extents, k)
			g.extStatePool = append(g.extStatePool, st)
		}
	}
	kept := g.promotedExt[:0]
	for _, k := range g.promotedExt {
		if k.seg != seg {
			kept = append(kept, k)
		}
	}
	g.promotedExt = kept
}

// pageInExtent serves a missing-page fault by faulting the whole covering
// extent in at once: a contiguous, naturally aligned frame run is granted
// into fresh consecutive free-segment slots, every page is filled while the
// frames sit in the free segment, and one single-range batched migration
// maps the lot — which the kernel recognizes as an extent and applies with
// one span mapping entry and one SuperpageOp charge instead of 2^order
// per-page charges. Reports handled=false (no side effects beyond a
// possibly-cached grant) when the extent is partially resident, the source
// cannot supply a run, or a fill fails — the per-page path then takes over.
func (g *Generic) pageInExtent(f kernel.Fault) (bool, error) {
	src, ok := g.cfg.Source.(ContiguousRunSource)
	if !ok || f.Seg.FramesPerPage() != 1 {
		return false, nil
	}
	n, base := g.extentSpan(f.Page)
	if base < 0 {
		return false, nil
	}
	if f.Seg.AnyPresent(base, n) {
		return false, nil
	}
	ekey := resKey{seg: f.Seg, page: base}
	if st := g.extents[ekey]; st != nil && st.denied {
		return false, nil
	}
	startSlot, ok, err := g.takeExtentRun(src)
	if err != nil {
		return false, err
	}
	if !ok {
		// Pool fragmented (or market refusal): deny until the extent state
		// drains so the remaining faults of this extent go straight to the
		// per-page path instead of re-paying the contiguous request.
		g.newExtentState(ekey).denied = true
		g.superStats.Denied++
		return false, nil
	}
	// Fill every page while its frame is still in the free segment (the
	// frames are fetched in one locked batch, not per page). A fill failure
	// abandons the fast path — the run's frames go back under per-page
	// free-list control and the per-page path re-drives (and re-reports)
	// the error.
	slots := g.slots.run(startSlot)
	fills := int64(0)
	for i, pfn := range g.slots.pfnsAt(slots) {
		switch fillErr := g.fillFrame(f.Seg, base+int64(i), g.k.Mem().Frame(pfn)); {
		case fillErr == nil:
			fills++
		case !errors.Is(fillErr, ErrSkipFill):
			g.slots.close(slots, nil)
			return false, nil
		}
	}
	g.stats.MigrateCalls++
	g.runRangeScratch[0] = kernel.PageRange{Page: startSlot, To: base, Pages: n}
	if err := g.k.MigratePagesBatch(kernel.AppCred, g.free, f.Seg, g.runRangeScratch[:],
		kernel.FlagRW, kernel.FlagReferenced|kernel.FlagDirty); err != nil {
		g.slots.close(slots, nil)
		return false, err
	}
	// Record residency; the run was never listed, so there is nothing to
	// consume here. The extent state is marked promoted — the kernel applied
	// the range as one extent — and fully resident first, so the density
	// hook does not mount a second promotion attempt.
	_, _, promoted := f.Seg.ExtentAt(base)
	st := g.newExtentState(ekey)
	st.promoted = promoted
	st.resident = int(n)
	if promoted {
		g.promotedExt = append(g.promotedExt, ekey)
		g.superStats.Promotions++
	}
	g.addResidentRun(f.Seg, base, n)
	g.slots.recycle(startSlot)
	if !promoted {
		// The kernel did not apply the range as one extent (superpages
		// toggled off mid-flight, or a shape the batch declined): replay
		// the density hook for the final page so the tracker's own
		// promotion attempt still fires, as per-page addResident would.
		st.resident--
		g.extAdd(resKey{seg: f.Seg, page: base + n - 1})
	}
	g.stats.Fills += fills
	g.superStats.ExtentFills++
	return true, nil
}

// newExtentState records a fresh state for the extent at ekey, taken from
// the manager's local pool — extents churn once per extent fill, and a
// pooled zeroed struct keeps the fault hot path off the allocator. extRemove
// and extDropSeg return drained states; when the pool runs dry (a workload
// that only accumulates extents never returns any) it is restocked a slab at
// a time, so the allocator sees one call per slab instead of one per extent.
func (g *Generic) newExtentState(ekey resKey) *extentState {
	if len(g.extStatePool) == 0 {
		slab := make([]extentState, 64)
		for i := range slab {
			g.extStatePool = append(g.extStatePool, &slab[i])
		}
	}
	k := len(g.extStatePool)
	st := g.extStatePool[k-1]
	g.extStatePool = g.extStatePool[:k-1]
	*st = extentState{}
	if g.extents == nil {
		g.extents = make(map[resKey]*extentState)
	}
	g.extents[ekey] = st
	return st
}

// takeExtentRun hands out the start slot of one granted, frame-backed run
// of 2^ExtentOrder consecutive free-segment slots from the magazine, which
// the source restocks when it is empty. That grant arrives through
// ReserveSlots and Granted like any other; the refill plan makes it land on
// run-aligned slots and stay parked, so per-page allocation cannot break it.
func (g *Generic) takeExtentRun(src ContiguousRunSource) (int64, bool, error) {
	start, ok := g.slots.unpark()
	if !ok {
		g.slots.planRuns(extentMagazineRuns)
		_, err := src.RequestContiguousRuns(g, int(g.slots.runLen), extentMagazineRuns)
		if g.slots.endPlan(); err != nil {
			return 0, false, err
		}
		start, ok = g.slots.unpark()
	}
	return start, ok, nil
}

// reclaimExtents evicts whole promoted extents before per-page selection:
// 2^order frames come home for the price of walking one extent, and the
// wide translation entry dies with the first page instead of decaying. The
// policy is consulted through the optional ExtentPolicy interface; without
// it (or when it declines) the oldest promoted extent is taken. An extent
// with a pinned page is abandoned for the pass (per-page selection skips
// pinned pages anyway). Constrained passes decline — extent frames are
// wherever the run was granted.
func (g *Generic) reclaimExtents(n int) (int, error) {
	reclaimed := 0
	for reclaimed < n && len(g.promotedExt) > 0 {
		idx := 0
		if ep, ok := g.cfg.Policy.(ExtentPolicy); ok {
			bases := make([]PageID, len(g.promotedExt))
			for i, k := range g.promotedExt {
				bases[i] = PageID{Seg: k.seg, Page: k.page}
			}
			idx = ep.VictimExtent(&g.host, bases, g.cfg.ExtentOrder)
			if idx < 0 || idx >= len(g.promotedExt) {
				return reclaimed, nil
			}
		}
		ekey := g.promotedExt[idx]
		span, base := g.extentSpan(ekey.page)
		pinned := false
		for i := int64(0); i < span; i++ {
			if flags, ok := ekey.seg.Flags(base + i); ok && flags.Has(kernel.FlagPinned) {
				pinned = true
				break
			}
		}
		if pinned {
			// Abandon extent-granular eviction for this extent: take it out
			// of the promotion-order list (it stays promoted in the kernel)
			// and let per-page selection work around the pinned page.
			g.promotedExt = append(g.promotedExt[:idx], g.promotedExt[idx+1:]...)
			continue
		}
		for i := int64(0); i < span && reclaimed < n; i++ {
			key := resKey{seg: ekey.seg, page: base + i}
			if _, ok := g.resIdx.get(key); !ok {
				continue
			}
			flags, _ := ekey.seg.Flags(key.page)
			if err := g.evict(key, flags); err != nil {
				return reclaimed, err
			}
			reclaimed++
		}
	}
	return reclaimed, nil
}

// VictimExtent implements ExtentPolicy for the default clock policy: the
// oldest promoted extent goes first — FIFO over extents, matching the
// clock's bias toward pages that have been resident longest.
func (c *clockPolicy) VictimExtent(_ PolicyHost, bases []PageID, _ int) int {
	if len(bases) == 0 {
		return -1
	}
	return 0
}
