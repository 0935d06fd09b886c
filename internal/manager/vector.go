package manager

import (
	"errors"
	"fmt"
	"slices"

	"epcm/internal/kernel"
	"epcm/internal/phys"
)

// The fault pipeline. Every fault Generic resolves — one delivered alone
// (HandleFault), a vector of them (kernel.VectorHandler), a page-in a
// derived manager drives directly (PageIn) — runs the same sequence:
// classify the faults into groups, and for each group acquire frames, fill
// them, and settle. A fault alone is a group of one; grouping only changes
// how many kernel calls the sequence spends:
//
//   - default-handled protection faults are grouped by (segment, flag) and
//     settled with one ModifyPageFlagsBatch per group;
//   - plain missing-page faults are grouped by segment: free frames are
//     acquired for the whole group up front (victim selection runs once per
//     group, through the same Policy hooks), each frame is filled, and the
//     group lands with one MigratePagesBatch;
//   - everything else — COW faults, recall hits, constraint or Protection
//     or superpage specializations, duplicate pages within the vector — is a
//     group of its own.
//
// A group step that fails is re-driven one member at a time through the
// same code, so the observable per-fault outcomes (which pages become
// resident, which faults error and how) do not depend on the grouping.

var _ kernel.VectorHandler = (*Generic)(nil)

// IOAccountant is an optional FrameSource extension: a source that meters
// I/O (the SPCM's memory market) is charged once per resolved group for
// the pages the group filled from backing store. Only missing-page groups
// of a vector of two or more faults charge through it — a fault delivered
// alone predates the interface and stays cost-identical to the paper's
// accounting (a known divergence by delivery shape; see DESIGN.md).
type IOAccountant interface {
	ChargeIO(g *Generic, pages int64)
}

// Fault classes assigned during the classification pass. vecDone marks a
// fault a group already took.
const (
	vecSingle = uint8(iota)
	vecProt
	vecMiss
	vecDone
)

// HandleFault implements kernel.Manager: a fault alone is a group of one.
func (g *Generic) HandleFault(f kernel.Fault) error {
	g.stats.Faults++
	fs, errs, one := [1]kernel.Fault{f}, [1]error{}, [1]int{}
	g.resolve(fs[:], errs[:], one[:], false)
	return errs[0]
}

// HandleFaultVector implements kernel.VectorHandler.
func (g *Generic) HandleFaultVector(fs []kernel.Fault, errs []error) {
	g.stats.Faults += int64(len(fs))
	cls := g.classify(fs)
	for i := range fs {
		if cls[i] == vecProt {
			g.resolve(fs, errs, g.group(fs, cls, i), false)
		}
	}
	bill := len(fs) > 1
	for i := range fs {
		if cls[i] == vecMiss {
			g.resolve(fs, errs, g.group(fs, cls, i), bill)
		}
	}
	for i := range fs {
		if cls[i] == vecSingle {
			one := [1]int{i}
			g.resolve(fs, errs, one[:], false)
		}
	}
}

// classify sorts the faults of a vector into groupable protection faults,
// groupable missing-page faults, and singles.
func (g *Generic) classify(fs []kernel.Fault) []uint8 {
	if cap(g.vecClass) < len(fs) {
		g.vecClass = make([]uint8, len(fs))
	}
	cls := g.vecClass[:len(fs)]
	if g.vecSeen == nil {
		g.vecSeen = make(map[resKey]struct{}, len(fs))
	}
	clear(g.vecSeen)
	superOn := g.superOn()
	for i, f := range fs {
		key := resKey{seg: f.Seg, page: f.Page}
		cls[i] = vecSingle
		switch {
		case f.Kind == kernel.FaultProtection && g.cfg.Protection == nil:
			if _, dup := g.vecSeen[key]; dup {
				break
			}
			g.vecSeen[key] = struct{}{}
			cls[i] = vecProt
		case f.Kind == kernel.FaultMissing && !superOn && g.cfg.Constraint == nil:
			if _, dup := g.vecSeen[key]; dup {
				break // second fault on one page must see ErrPageBusy alone
			}
			if _, ok := g.slots.recall[key]; ok {
				break // fast re-fault keeps its exact single-fault charges
			}
			if f.Seg.HasPage(f.Page) {
				break // stale fault; must see ErrPageBusy alone
			}
			g.vecSeen[key] = struct{}{}
			cls[i] = vecMiss
		}
	}
	return cls
}

// needFlag is the access mode a default-handled protection fault enables.
func needFlag(f kernel.Fault) kernel.PageFlags {
	if f.Access == kernel.Write {
		return kernel.FlagWrite
	}
	return kernel.FlagRead
}

// group collects, from fs[first] on, the faults of fs[first]'s class that
// one group step can take together: its segment and, for protection
// faults, its needed flag.
func (g *Generic) group(fs []kernel.Fault, cls []uint8, first int) []int {
	class, seg, need := cls[first], fs[first].Seg, needFlag(fs[first])
	members := g.vecMembers[:0]
	for i := first; i < len(fs); i++ {
		if cls[i] == class && fs[i].Seg == seg && (class != vecProt || needFlag(fs[i]) == need) {
			cls[i] = vecDone
			members = append(members, i)
		}
	}
	g.vecMembers = members
	return members
}

// resolve runs one group — fs[members], all of one kind — and feeds the
// per-fault signal of the faults it resolved (OnFault). bill marks a group
// whose fills are charged through the source's IOAccountant.
func (g *Generic) resolve(fs []kernel.Fault, errs []error, members []int, bill bool) {
	switch f := fs[members[0]]; f.Kind {
	case kernel.FaultProtection:
		g.resolveProt(fs, errs, members)
	case kernel.FaultMissing, kernel.FaultCopyOnWrite:
		g.pageIn(fs, errs, members, bill)
	default:
		errs[members[0]] = fmt.Errorf("manager %s: unknown fault kind %v", g.cfg.Name, f.Kind)
	}
	if g.cfg.OnFault != nil {
		for _, i := range members {
			if errs[i] == nil {
				g.cfg.OnFault(fs[i])
			}
		}
	}
}

// resolveProt settles a group of protection faults: the Protection hook
// when one is set (always a group of one), otherwise one ModifyPageFlagsBatch
// enabling the faulted access mode over the group's pages. A protection
// fault is the one access signal a manager ever observes for an
// already-resident page (true cache hits are invisible; the kernel just
// sets the Referenced bit), so each resolved fault touches the policy.
func (g *Generic) resolveProt(fs []kernel.Fault, errs []error, members []int) {
	first := fs[members[0]]
	var err error
	if g.cfg.Protection != nil {
		err = g.cfg.Protection(first)
	} else {
		ranges := g.vecRanges[:0]
		for _, i := range members {
			ranges = kernel.AppendRange(ranges, fs[i].Page, fs[i].Page)
		}
		g.vecRanges = ranges
		err = g.k.ModifyPageFlagsBatch(kernel.AppCred, first.Seg, ranges, needFlag(first), 0)
	}
	switch {
	case err == nil:
		for _, i := range members {
			g.policyTouch(resKey{seg: first.Seg, page: fs[i].Page})
		}
	case len(members) == 1:
		errs[members[0]] = err
	default:
		for j := range members {
			g.resolveProt(fs, errs, members[j:j+1])
		}
	}
}

// pageIn serves a group of missing-page faults on one segment — or any one
// missing-page or copy-on-write fault — acquire frames from the free-page
// segment (requesting or reclaiming as needed), fill them while they are
// still there (the manager has the free segment mapped into its own address
// space, §2.2), and settle. For a COW fault the kernel copies the source
// contents after the migrate (§2.1), so no fill happens here. Faults the
// group has no frame for are re-driven alone, with their own acquisition
// attempts; a fill error is that fault's outcome, its frame stays free.
func (g *Generic) pageIn(fs []kernel.Fault, errs []error, members []int, bill bool) {
	first := fs[members[0]]
	if len(members) == 1 && first.Kind == kernel.FaultMissing {
		// Fast re-fault: the page was reclaimed but its frame not yet reused
		// — migrate it straight back, no fill, no I/O (§2.2). The len check
		// spares the 16-byte struct-key map hash on the common path where
		// nothing was reclaimed.
		if len(g.slots.recall) > 0 {
			if ci, ok := g.slots.recall[resKey{seg: first.Seg, page: first.Page}]; ok {
				slotIdx := [1]int{ci}
				g.settle(fs, errs, members, slotIdx[:])
				if errs[members[0]] == nil {
					g.stats.FastRefaults++
				}
				return
			}
		}
		// Superpage fast path: a fault on a fully-absent extent pages the
		// whole extent in over one contiguous frame run. Off by default —
		// the gate is an integer compare.
		if g.superOn() {
			if handled, err := g.pageInExtent(first); handled || err != nil {
				errs[members[0]] = err
				return
			}
		}
	}
	constraint := phys.AnyFrame()
	if g.cfg.Constraint != nil {
		constraint = g.cfg.Constraint(first)
	}
	chosen, err := g.acquireSlots(len(members), constraint)
	if len(members) == 1 && len(chosen) == 0 {
		errs[members[0]] = err
		return
	}

	if cap(g.vecSlotIdx) < len(members) {
		g.vecSlotIdx = make([]int, len(members))
	}
	slotIdx := g.vecSlotIdx[:len(chosen)]
	fills := int64(0)
	for j, ci := range chosen {
		slotIdx[j] = ci
		f := fs[members[j]]
		if f.Kind != kernel.FaultMissing {
			continue
		}
		switch fillErr := g.fillFrame(f, g.slots.listed[ci].frame); {
		case fillErr == nil:
			g.stats.Fills++
			fills++
		case errors.Is(fillErr, ErrSkipFill):
			// Contents intentionally left as they are.
		default:
			errs[members[j]] = fillErr
			slotIdx[j] = -1
		}
	}
	if bill && fills > 0 {
		if acct, ok := g.cfg.Source.(IOAccountant); ok {
			acct.ChargeIO(g, fills)
		}
	}
	unserved := members[len(chosen):]
	g.settle(fs, errs, members[:len(chosen)], slotIdx)
	for j := range unserved {
		g.pageIn(fs, errs, unserved[j:j+1], bill)
	}
}

// fillFrame runs the fill hook or backing fill with the retry budget — the
// one fill leg of every page-in, per page or per extent.
func (g *Generic) fillFrame(f kernel.Fault, frame *phys.Frame) error {
	var err error
	if g.cfg.Fill != nil {
		err = g.cfg.Fill(f, frame)
	} else {
		err = g.cfg.Backing.Fill(f.Seg, f.Page, frame)
	}
	if err != nil {
		err = g.retryBacking(err, func() error {
			if g.cfg.Fill != nil {
				return g.cfg.Fill(f, frame)
			}
			return g.cfg.Backing.Fill(f.Seg, f.Page, frame)
		})
	}
	return err
}

// migrateIn moves the frames at free-list entries slotIdx[j] >= 0 to the
// pages faulted by fs[members[j]] with one batched kernel call — a group of
// one is one range.
func (g *Generic) migrateIn(fs []kernel.Fault, members, slotIdx []int) error {
	ranges := g.vecRanges[:0]
	for j, i := range members {
		if slotIdx[j] >= 0 {
			ranges = kernel.AppendRange(ranges, g.slots.listed[slotIdx[j]].slot, fs[i].Page)
		}
	}
	g.vecRanges = ranges
	if len(ranges) == 0 {
		return nil
	}
	g.stats.MigrateCalls++
	return g.k.MigratePagesBatch(kernel.AppCred, g.free, fs[members[0]].Seg, ranges,
		g.cfg.MapFlags, kernel.FlagReferenced|kernel.FlagDirty)
}

// settle is the one tail of every page-in: the filled frames at free-list
// entries slotIdx[j] (skipping entries < 0) migrate to the pages faulted by
// fs[members[j]], their slots go back to the empty list and the pages
// become resident. If the group's migration fails, it is re-driven one
// member at a time, so one bad page cannot take down the faults that could
// still be served.
func (g *Generic) settle(fs []kernel.Fault, errs []error, members, slotIdx []int) {
	if err := g.migrateIn(fs, members, slotIdx); err != nil {
		for j, i := range members {
			if slotIdx[j] < 0 {
				continue
			}
			if len(members) > 1 {
				err = g.migrateIn(fs, members[j:j+1], slotIdx[j:j+1])
			}
			if err != nil {
				errs[i] = err
				slotIdx[j] = -1
			}
		}
	}
	// Free-slot removals run highest index first so the swap-remove never
	// relocates an entry that is still pending.
	used := g.vecChosen[:0]
	for _, ci := range slotIdx {
		if ci >= 0 {
			used = append(used, ci)
		}
	}
	g.vecChosen = used
	slices.Sort(used)
	for k := len(used) - 1; k >= 0; k-- {
		g.slots.unlist(used[k])
	}
	for j, i := range members {
		if slotIdx[j] >= 0 {
			g.addResident(resKey{seg: fs[i].Seg, page: fs[i].Page})
		}
	}
}
