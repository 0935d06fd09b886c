package manager

import (
	"errors"
	"fmt"

	"epcm/internal/kernel"
	"epcm/internal/phys"
)

// This file implements whole-segment swapping (§2.2): "the application
// segment manager swaps the application segments except for its code and
// data segments. It then returns ownership of these latter segments to the
// default segment manager, and indicates it is ready to be swapped. ...
// On resumption of the application, the manager gains control and repeats
// the initialization sequence."
//
// SwapOut and SwapIn move entire segments between memory and backing store
// in one manager-directed operation — the batch-scheduling primitive the
// memory market's save-up-then-run discipline relies on.

// SwapStats reports one swap operation's work.
type SwapStats struct {
	PagesOut   int // pages written and released
	PagesIn    int // pages restored
	DirtySkips int // discardable dirty pages dropped without writeback
	CleanSkips int // clean pages released without writeback
}

// SwapOut writes every resident page of seg to the manager's backing store
// and migrates the frames to the free-page segment, unassociated (the
// segment is going quiescent; its frames should be reusable or returnable
// immediately). Pinned pages are unpinned: swap-out overrides pinning,
// because the application itself requested it.
func (g *Generic) SwapOut(seg *kernel.Segment) (SwapStats, error) {
	var st SwapStats
	for _, p := range seg.Pages() {
		flags, _ := seg.Flags(p)
		frame := seg.FrameAt(p)
		switch {
		case flags.Has(kernel.FlagDirty) && flags.Has(kernel.FlagDiscardable) && !g.cfg.IgnoreDiscardable:
			st.DirtySkips++
			g.stats.Discards++
		case flags.Has(kernel.FlagDirty):
			err := g.cfg.Backing.Writeback(seg, p, frame)
			if err != nil {
				err = g.retryBacking(err, func() error { return g.cfg.Backing.Writeback(seg, p, frame) })
			}
			if err != nil {
				return st, fmt.Errorf("swap out %v page %d: %w", seg, p, err)
			}
			g.stats.Writebacks++
		default:
			st.CleanSkips++
		}
		if err := g.migrateOut(resKey{seg: seg, page: p}, frame, kernel.FlagRW|kernel.FlagDirty|
			kernel.FlagReferenced|kernel.FlagDiscardable|kernel.FlagPinned, false); err != nil {
			return st, err
		}
		st.PagesOut++
	}
	return st, nil
}

// SwapIn restores pages [0, pages) of seg from the backing store — the
// resumption path. Pages already resident are left alone. Each restored
// page is filled before it is migrated in, exactly like a fault, but the
// whole segment is brought in as one manager-directed batch (no faults, no
// per-page traps).
func (g *Generic) SwapIn(seg *kernel.Segment, pages []int64) (SwapStats, error) {
	var st SwapStats
	for _, p := range pages {
		if seg.HasPage(p) {
			continue
		}
		ci, err := g.acquireSlot(phys.AnyFrame())
		if err != nil {
			return st, fmt.Errorf("swap in %v page %d: %w", seg, p, err)
		}
		switch err := g.fillFrame(seg, p, g.slots.listed[ci].frame); {
		case err == nil:
			g.stats.Fills++
		case !errors.Is(err, ErrSkipFill):
			return st, fmt.Errorf("swap in %v page %d: %w", seg, p, err)
		}
		if err := g.settle(kernel.Fault{Seg: seg, Page: p}, ci); err != nil {
			return st, err
		}
		st.PagesIn++
	}
	return st, nil
}

// Quiesce implements the full §2.2 batch protocol for an application with
// data segments and a manager: swap out every given segment, return the
// freed frames to the frame source, and report how many frames went back.
// The application is then ready to be suspended; Resume undoes it.
func (g *Generic) Quiesce(segs []*kernel.Segment) (int, error) {
	g.slots.flush() // count withheld runs in the free-slot total below
	for _, seg := range segs {
		if _, err := g.SwapOut(seg); err != nil {
			return 0, err
		}
	}
	return g.ReturnFreeFrames(g.FreeFrames())
}

// Resume requests frames from the source and swaps the given segments'
// pages back in. pagesOf lists, per segment, which pages to restore (the
// manager tracked them across Quiesce — it "keeps track of the segment and
// page number for each page frame").
func (g *Generic) Resume(segs []*kernel.Segment, pagesOf map[kernel.SegID][]int64) error {
	need := 0
	for _, seg := range segs {
		need += len(pagesOf[seg.ID()])
	}
	if g.cfg.Source != nil && g.FreeFrames() < need {
		if _, err := g.cfg.Source.RequestFrames(g, need-g.FreeFrames(), phys.AnyFrame()); err != nil {
			return err
		}
	}
	for _, seg := range segs {
		if _, err := g.SwapIn(seg, pagesOf[seg.ID()]); err != nil {
			return err
		}
	}
	return nil
}
