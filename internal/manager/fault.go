package manager

import (
	"errors"
	"fmt"

	"epcm/internal/kernel"
	"epcm/internal/phys"
)

// The fault pipeline. The kernel delivers every fault alone, and Generic
// resolves it alone: one fault, one upcall, one resolve (§2.1). A fault the
// kernel delivers (HandleFault) and a page-in a derived manager drives
// directly (PageIn) run the same sequence:
//
//   - a default-handled protection fault enables the faulted access mode on
//     its page with one ModifyPageFlagsBatch;
//   - a missing-page or copy-on-write fault acquires one free frame
//     (requesting or reclaiming as needed), fills it, and settles it into
//     the faulted page with one MigratePagesBatch.

// IOAccountant is a stub kept because bench/ names it: no manager path
// charges I/O through it. ROADMAP item 7 removes it.
type IOAccountant interface {
	ChargeIO(g *Generic, pages int64)
}

// HandleFault implements kernel.Manager.
func (g *Generic) HandleFault(f kernel.Fault) error {
	g.stats.Faults++
	switch f.Kind {
	case kernel.FaultProtection:
		return g.resolveProt(f)
	case kernel.FaultMissing, kernel.FaultCopyOnWrite:
		return g.PageIn(f)
	default:
		return fmt.Errorf("manager %s: unknown fault kind %v", g.cfg.Name, f.Kind)
	}
}

// HandleFaultVector is a stub kept because bench/ calls it: the kernel
// never delivers a vector. It resolves each fault through HandleFault and
// stores the outcome in errs[i]. ROADMAP item 7 removes it.
func (g *Generic) HandleFaultVector(fs []kernel.Fault, errs []error) {
	for i, f := range fs {
		errs[i] = g.HandleFault(f)
	}
}

// resolveProt settles a protection fault: the Protection hook when one is
// set, otherwise one ModifyPageFlagsBatch enabling the faulted access mode
// on the page. A protection fault is the one access signal a manager ever
// observes for an already-resident page (true cache hits are invisible; the
// kernel just sets the Referenced bit), so a resolved fault touches the
// policy.
func (g *Generic) resolveProt(f kernel.Fault) error {
	var err error
	if g.cfg.Protection != nil {
		err = g.cfg.Protection(f)
	} else {
		need := kernel.FlagRead
		if f.Access == kernel.Write {
			need = kernel.FlagWrite
		}
		r := [1]kernel.PageRange{{Page: f.Page, To: f.Page, Pages: 1}}
		err = g.k.ModifyPageFlagsBatch(kernel.AppCred, f.Seg, r[:], need, 0)
	}
	if err == nil {
		g.policyTouch(resKey{seg: f.Seg, page: f.Page})
	}
	return err
}

// PageIn serves one missing-page or copy-on-write fault: acquire a frame
// from the free-page segment (requesting or reclaiming as needed), fill it
// while it is still there (the manager has the free segment mapped into its
// own address space, §2.2), and settle. For a COW fault the kernel copies
// the source contents after the migrate (§2.1), so no fill happens here. A
// fill error is the fault's outcome; its frame stays free. Managers built
// on Generic (e.g. the default manager's multi-page append allocation)
// drive it directly; unlike HandleFault it counts no fault.
func (g *Generic) PageIn(f kernel.Fault) error {
	if f.Kind == kernel.FaultMissing {
		// Fast re-fault: the page was reclaimed but its frame not yet reused
		// — migrate it straight back, no fill, no I/O (§2.2). The len check
		// spares the 16-byte struct-key map hash on the common path where
		// nothing was reclaimed.
		if len(g.slots.recall) > 0 {
			if ci, ok := g.slots.recall[resKey{seg: f.Seg, page: f.Page}]; ok {
				err := g.settle(f, ci)
				if err == nil {
					g.stats.FastRefaults++
				}
				return err
			}
		}
		// Superpage fast path: a fault on a fully-absent extent pages the
		// whole extent in over one contiguous frame run. Off by default —
		// the gate is an integer compare.
		if g.superOn() {
			if handled, err := g.pageInExtent(f); handled || err != nil {
				return err
			}
		}
	}
	constraint := phys.AnyFrame()
	if g.cfg.Constraint != nil {
		constraint = g.cfg.Constraint(f)
	}
	ci, err := g.acquireSlot(constraint)
	if err != nil {
		return err
	}
	if f.Kind == kernel.FaultMissing {
		switch err := g.fillFrame(f.Seg, f.Page, g.slots.listed[ci].frame); {
		case err == nil:
			g.stats.Fills++
		case errors.Is(err, ErrSkipFill):
			// Contents intentionally left as they are.
		default:
			return err
		}
	}
	return g.settle(f, ci)
}

// fillFrame runs the Backing's fill with the retry budget — the one fill
// leg of every page-in: a fault, an extent fill, a swap-in. ErrSkipFill
// comes back unchanged; the caller maps the page without counting a fill.
func (g *Generic) fillFrame(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	err := g.cfg.Backing.Fill(seg, page, frame)
	if err != nil {
		err = g.retryBacking(err, func() error { return g.cfg.Backing.Fill(seg, page, frame) })
	}
	return err
}

// settle is the one tail of every page-in: the filled frame at free-list
// entry ci migrates to the page f faulted with one MigratePagesBatch, its
// slot goes back to the empty list and the page becomes resident. If the
// migration fails, the frame stays free.
func (g *Generic) settle(f kernel.Fault, ci int) error {
	r := [1]kernel.PageRange{{Page: g.slots.listed[ci].slot, To: f.Page, Pages: 1}}
	g.stats.MigrateCalls++
	if err := g.k.MigratePagesBatch(kernel.AppCred, g.free, f.Seg, r[:],
		kernel.FlagRW, kernel.FlagReferenced|kernel.FlagDirty); err != nil {
		return err
	}
	g.slots.unlist(ci)
	g.addResident(resKey{seg: f.Seg, page: f.Page})
	return nil
}
