package manager

import (
	"errors"
	"fmt"

	"epcm/internal/kernel"
)

// This file implements the §2.2 self-management bootstrap: "the application
// manager [manages] the segments containing its code and data, and ...
// ensure[s] that these segments are not paged out while the program is
// active. ... When an application starts execution, these segments are
// under the control of the default segment manager. The application manager
// accesses these pages at this point to force them into memory, then
// assumes management of these segments, and then reaccesses these segments,
// ensuring they are still in memory. A page fault after assuming ownership
// causes this initialization sequence to be retried until it succeeds.
// Once the manager has completed this initialization, it excludes its own
// page frames from being candidates for replacement."

// ErrBootstrapRetries reports that the self-management sequence kept
// losing pages to the previous manager and gave up.
var ErrBootstrapRetries = errors.New("manager: self-management bootstrap exceeded retry bound")

// AssumeManagement transfers the given segments (the manager's own code and
// data, initially under another manager such as the default one) to g and
// pins every page, following the paper's retry protocol. pages lists the
// page span [0, pages) of each segment.
//
// The sequence per attempt:
//  1. touch every page through the current manager (forcing residency);
//  2. take over with SetSegmentManager;
//  3. re-access everything; a fault here means the old manager reclaimed a
//     page between steps 1 and 2, so ownership is returned and the attempt
//     retried;
//  4. pin the pages and adopt the frames into g's accounting.
func (g *Generic) AssumeManagement(segs []*kernel.Segment, pages []int64, maxRetries int) error {
	if len(segs) != len(pages) {
		return fmt.Errorf("manager %s: %d segments but %d page counts", g.cfg.Name, len(segs), len(pages))
	}
	if maxRetries <= 0 {
		maxRetries = 4
	}
	for attempt := 0; attempt < maxRetries; attempt++ {
		// Step 1: force the pages in under the current manager.
		if err := touchAll(g.k, segs, pages); err != nil {
			return err
		}
		previous := make([]kernel.Manager, len(segs))
		for i, seg := range segs {
			previous[i] = seg.Manager()
			g.k.SetSegmentManager(seg, g)
		}
		// Step 3: verify everything is still resident. No faults may be
		// taken now — we are the manager, and serving our own fault here
		// is the recursion the paper's signal-stack discussion warns
		// about. Verify by inspection instead of access.
		if allResident(segs, pages) {
			// Step 4: pin and adopt.
			for i, seg := range segs {
				if err := g.k.ModifyPageFlags(kernel.AppCred, seg, 0, pages[i], kernel.FlagPinned, 0); err != nil {
					return err
				}
				g.managed[seg.ID()] = seg
				for _, p := range seg.Pages() {
					g.addResident(resKey{seg: seg, page: p})
				}
			}
			return nil
		}
		// A page went missing: hand ownership back and retry.
		for i, seg := range segs {
			g.k.SetSegmentManager(seg, previous[i])
		}
	}
	return fmt.Errorf("%w (%d attempts)", ErrBootstrapRetries, maxRetries)
}

func touchAll(k *kernel.Kernel, segs []*kernel.Segment, pages []int64) error {
	for i, seg := range segs {
		for p := int64(0); p < pages[i]; p++ {
			if err := k.Access(seg, p, kernel.Read); err != nil {
				return err
			}
		}
	}
	return nil
}

func allResident(segs []*kernel.Segment, pages []int64) bool {
	for i, seg := range segs {
		for p := int64(0); p < pages[i]; p++ {
			if !seg.HasPage(p) {
				return false
			}
		}
	}
	return true
}

// ReleaseManagement returns segments to another manager (normally the
// default manager) ahead of being swapped out (§2.2), unpinning their
// pages and dropping them from g's accounting.
func (g *Generic) ReleaseManagement(segs []*kernel.Segment, pages []int64, to kernel.Manager) error {
	g.slots.flush()
	for i, seg := range segs {
		if err := g.k.ModifyPageFlags(kernel.AppCred, seg, 0, pages[i], 0, kernel.FlagPinned); err != nil {
			return err
		}
		for _, p := range seg.Pages() {
			g.removeResident(resKey{seg: seg, page: p})
		}
		delete(g.managed, seg.ID())
		g.k.SetSegmentManager(seg, to)
	}
	return nil
}
