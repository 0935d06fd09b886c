package kernel

import (
	"errors"
	"fmt"
	"sync/atomic"

	"epcm/internal/phys"
)

// Superpage extents. The paper's V++ kernel supports multiple page sizes as
// a first-class VM feature; this file implements the translation-side half
// of that: one mapping entry (and one TLB way) can describe a whole aligned
// extent of 2^order base pages backed by physically contiguous frames.
//
// The design principle is that extents live only in the translation CACHES
// and a per-segment registry — the authoritative per-base-page state
// (Segment.pages, frameOwner/framePage, frame conservation) is untouched.
// A span entry only ever has to make a table/TLB lookup HIT; flags and
// frames are always read from the page store. That keeps the blast radius
// small: demoting an extent can never lose information, and a dropped span
// entry (the tables are caches) only costs a walk.
//
// The invariant every mutation path maintains: a live extent implies all
// of its base pages are present in the segment. Any operation that removes
// or re-protects a covered page at base-page granularity first demotes the
// covering extent (demoteCoveringLocked), so span entries can never
// advertise reach over absent pages.

// MaxExtentOrder is the largest supported extent: 2^MaxExtentOrder base
// pages. It matches phys.MaxRunOrder, the largest aligned run the buddy
// free list can allocate, so every promotable extent is also allocatable.
const MaxExtentOrder = phys.MaxRunOrder

// Superpages reports whether the extent plane is on for this kernel:
// Config.Superpages, fixed at New, or the process-wide shim below. Off (the
// default) every path — promotion, span lookups, the batch extent fast
// paths — is bypassed with at most a relaxed atomic load, so the golden
// reproduction output is byte-identical in every mode.
func (k *Kernel) Superpages() bool { return k.cfg.Superpages || superpages.Load() }

// superpages is the shim bench/ pins until a [benchmark] PR fills
// Config.Superpages itself (ROADMAP item 7): bench/ boots its
// kernels with the plane off and turns it on around each epoch, so the shim
// is OR-ed into every kernel's own setting at call time, not read at boot.
// Nothing else in the root module calls the two functions below.
var superpages atomic.Bool

// SetSuperpages turns the shim on or off: on, every kernel in the process
// runs the extent plane whatever its Config says.
func SetSuperpages(on bool) { superpages.Store(on) }

// SuperpagesEnabled reports the shim's setting, not any kernel's: ask
// (*Kernel).Superpages for that.
func SuperpagesEnabled() bool { return superpages.Load() }

// ErrSuperpagesOff reports a superpage operation with the extent plane
// disabled.
var ErrSuperpagesOff = errors.New("kernel: superpages disabled")

// spanTagShift places the order tag of a span key above any cacheable page
// number: the mapping table packs pages below 2^40 (packKey) and holds no
// entry for any other. A span entry hashes as its tagged key, so it takes a
// different slot from the base page's own exact entry at the extent base;
// inside the slot word the order has its own field.
const spanTagShift = 56

// spanMapKey derives the key the span entry of the extent based at k.page
// with the given order hashes as (order 0: k itself).
func spanMapKey(k mapKey, order int) mapKey {
	return mapKey{k.seg, k.page | int64(order)<<spanTagShift}
}

// extentBase masks page down to its covering extent base at order o.
func extentBase(page int64, o int) int64 {
	return page &^ (int64(1)<<uint(o) - 1)
}

// PromoteExtent installs a superpage extent of 2^order base pages starting
// at the aligned page base: one span mapping entry and one superpage TLB
// way cover the whole extent. Every covered page must be present with its
// frames physically contiguous, ascending, and naturally aligned (the
// frame run must start at a PFN aligned to the run length, as hardware
// superpages require) — otherwise ErrNotContiguous. The charge is one
// kernel call plus one SuperpageOp, independent of order: collapsing the
// per-page cost is the point.
func (k *Kernel) PromoteExtent(cred Cred, s *Segment, base int64, order int) error {
	if !k.Superpages() {
		return ErrSuperpagesOff
	}
	if order < 1 || order > MaxExtentOrder {
		return fmt.Errorf("%w: extent order %d", ErrBadRange, order)
	}
	k.clock.AdvanceOn(uint64(s.id), k.cost.KernelCall+k.cost.SuperpageOp)
	s.lock()
	defer s.unlock()
	if s.deleted {
		return ErrNoSuchSegment
	}
	if s.restricted && !cred.Privileged {
		return fmt.Errorf("%w: promote on %s by %q", ErrNotPrivileged, s, cred.Name)
	}
	n := int64(1) << uint(order)
	if base < 0 || base&(n-1) != 0 {
		return fmt.Errorf("%w: extent base %d not aligned to %d pages", ErrBadRange, base, n)
	}
	if ord, ok := s.extents[base]; ok {
		if int(ord) == order {
			return nil // already promoted; idempotent
		}
		return fmt.Errorf("%w: extent at %d already promoted at order %d", ErrOverlap, base, ord)
	}
	for b, o := range s.extents {
		if base < b+int64(1)<<uint(o) && b < base+n {
			return fmt.Errorf("%w: extent [%d,+%d) overlaps extent at %d", ErrOverlap, base, n, b)
		}
	}
	var prev phys.PFN
	for i := int64(0); i < n; i++ {
		e, ok := s.pages.get(base + i)
		if !ok {
			return pageError(ErrPageNotPresent, s, base+i)
		}
		pfn := e.pfn
		if i == 0 {
			if int64(pfn)&(n-1) != 0 {
				return pageError(ErrNotContiguous, s, base)
			}
		} else if pfn != prev+1 {
			return pageError(ErrNotContiguous, s, base+i)
		}
		prev = pfn
	}
	k.recordExtentLocked(s, base, uint8(order))
	k.stats.ExtentPromotions.Add(uint64(s.id), 1)
	k.stats.SuperpageOps.Add(uint64(s.id), 1)
	return nil
}

// recordExtentLocked registers the extent and installs its span entries.
// Caller holds s.mu and has validated presence/contiguity.
func (k *Kernel) recordExtentLocked(s *Segment, base int64, order uint8) {
	if s.extents == nil {
		s.extents = make(map[int64]uint8)
	}
	s.extents[base] = order
	s.extOrderCount[order]++
	if k.cacheFill(s) {
		key := mapKey{s.id, base}
		k.table.insertSpan(key, order)
		k.tlbOf(s).installSpan(key, order)
	}
}

// DemoteExtent removes the extent based at base, restoring per-base-page
// translation. It is idempotent: demoting an unpromoted base is a no-op
// that charges only the kernel call. The pages themselves are untouched —
// demotion only withdraws the wide translation entries.
func (k *Kernel) DemoteExtent(cred Cred, s *Segment, base int64) error {
	k.clock.AdvanceOn(uint64(s.id), k.cost.KernelCall)
	s.lock()
	defer s.unlock()
	if s.deleted {
		return ErrNoSuchSegment
	}
	if s.restricted && !cred.Privileged {
		return fmt.Errorf("%w: demote on %s by %q", ErrNotPrivileged, s, cred.Name)
	}
	if ord, ok := s.extents[base]; ok {
		k.clock.AdvanceOn(uint64(s.id), k.cost.SuperpageOp)
		k.stats.SuperpageOps.Add(uint64(s.id), 1)
		k.dropExtentLocked(s, base, ord)
	}
	return nil
}

// dropExtentLocked forgets one live extent and withdraws its span entries
// from the mapping caches. Caller holds s.mu.
func (k *Kernel) dropExtentLocked(s *Segment, base int64, order uint8) {
	delete(s.extents, base)
	s.extOrderCount[order]--
	key := mapKey{s.id, base}
	k.table.removeSpan(key, order)
	k.tlbOf(s).invalidateSpan(key, order)
	k.stats.ExtentDemotions.Add(uint64(s.id), 1)
}

// demoteCoveringLocked demotes the extent covering page, if any. It is the
// hook every per-base-page mutation (a migration out) runs before
// removing a covered page, preserving the extent⇒pages-present invariant.
// Caller holds s.mu. With no live extents (the default) it is one length
// check.
func (k *Kernel) demoteCoveringLocked(s *Segment, page int64) {
	if len(s.extents) == 0 {
		return
	}
	for o := 1; o <= MaxExtentOrder; o++ {
		if s.extOrderCount[o] == 0 {
			continue
		}
		base := extentBase(page, o)
		if ord, ok := s.extents[base]; ok && int(ord) == o {
			k.dropExtentLocked(s, base, ord)
			return
		}
	}
}

// dropAllExtentsLocked demotes every live extent of s — segment deletion
// and manager handoff (SetSegmentManager, revocation adoption), where the
// incoming manager's promotion state starts cold. Caller holds s.mu.
func (k *Kernel) dropAllExtentsLocked(s *Segment) {
	if len(s.extents) == 0 {
		return
	}
	for base, ord := range s.extents {
		key := mapKey{s.id, base}
		k.table.removeSpan(key, ord)
		k.tlbOf(s).invalidateSpan(key, ord)
		k.stats.ExtentDemotions.Add(uint64(s.id), 1)
	}
	clear(s.extents)
	s.extOrderCount = [MaxExtentOrder + 1]uint32{}
}

// ExtentCount reports how many extents are currently promoted on s.
func (s *Segment) ExtentCount() int {
	s.lock()
	defer s.unlock()
	return len(s.extents)
}

// ExtentAt reports the promoted extent covering page, if any.
func (s *Segment) ExtentAt(page int64) (base int64, order int, ok bool) {
	s.lock()
	defer s.unlock()
	for o := 1; o <= MaxExtentOrder; o++ {
		if s.extOrderCount[o] == 0 {
			continue
		}
		b := extentBase(page, o)
		if ord, present := s.extents[b]; present && int(ord) == o {
			return b, o, true
		}
	}
	return 0, 0, false
}
