package manager

import (
	"fmt"
	"sort"
	"sync"

	"epcm/internal/kernel"
	"epcm/internal/phys"
)

// The paper's §2.2 lists "page replacement selection routines" among the
// routines a manager specializes. PR 1–6 hardwired one such routine — the
// clock sweep — into Generic; this file extracts the seam. A Policy owns
// victim selection and whatever recency/frequency bookkeeping it needs,
// while Generic keeps the mechanism: the resident list, the free-page
// segment, writeback/discard, and the exchange with the frame source.
//
// Concurrency: a manager's policy runs only on that manager's delivery
// lane (the concurrent scheduler flat-combines all of one manager's work
// onto a single logical thread), so Policy implementations need no locks
// and must not share state between managers. A Policy instance therefore
// belongs to exactly one Generic.

// PageID names one resident page a policy tracks. It is the policy-facing
// form of the manager's internal resident key.
type PageID struct {
	Seg  *kernel.Segment
	Page int64
}

// PolicyHost is the view of the manager a Policy operates through. The
// sampling calls (Sample, SampleMany, ClearReferenced*) issue charged
// kernel operations and may only be used from Victim; the bookkeeping
// hooks (Insert/Touch/Remove) must stay free of kernel calls so the fault
// hot path's cost structure is unchanged.
type PolicyHost interface {
	// ResidentLen and ResidentAt expose the manager's resident list — the
	// shared ring the clock policy sweeps. Positions are unstable across
	// Remove (the manager swap-removes), so policies that need stable
	// identity must key their own structures by PageID.
	ResidentLen() int
	ResidentAt(i int) PageID
	// Sample reads the page's attributes (reference/dirty/pinned bits,
	// presence) as one charged kernel call.
	Sample(id PageID) (kernel.PageAttribute, error)
	// SampleMany reads the attributes of an arbitrary set of pages of one
	// segment as a single batched kernel call (per-page legacy calls when
	// batching is disabled) — the batched protection/reference sampling
	// hook. Results land in dst, which is reused storage owned by the
	// caller.
	SampleMany(seg *kernel.Segment, pages []int64, dst []kernel.PageAttribute) ([]kernel.PageAttribute, error)
	// ClearReferenced clears the page's Referenced bit — the second-chance
	// move — as one charged kernel call.
	ClearReferenced(id PageID) error
	// ClearReferencedMany clears the Referenced bit on a set of pages of
	// one segment with one batched kernel call.
	ClearReferencedMany(seg *kernel.Segment, pages []int64) error
	// Admits reports whether the page's current frame satisfies the
	// constraint of the reclaim pass in progress. Only meaningful for a
	// page whose Sample showed Present.
	Admits(id PageID) bool
	// Forget drops a page that left the manager's control (Sample showed
	// !Present) from the resident bookkeeping; the policy's Remove hook
	// fires reentrantly before Forget returns.
	Forget(id PageID)
}

// Policy is the pluggable replacement policy. Implementations are driven
// by exactly one manager and are never called concurrently.
type Policy interface {
	// PolicyName identifies the policy (registry name).
	PolicyName() string
	// Insert records that a page became resident (page-in, fast re-fault,
	// adoption). No kernel calls allowed.
	Insert(h PolicyHost, id PageID)
	// Touch records an access signal the manager observed for a resident
	// page (a protection fault; true cache hits are invisible to managers
	// — the kernel sets the Referenced bit, which Victim samples). No
	// kernel calls allowed.
	Touch(h PolicyHost, id PageID)
	// Remove records that a page left residency (eviction, segment
	// deletion, migration away). It runs after the manager's resident
	// list has shrunk. No kernel calls allowed.
	Remove(h PolicyHost, id PageID)
	// Victim picks the next page to evict and returns its freshly sampled
	// flags (so the eviction need not re-sample). ok=false means no
	// eligible victim exists right now. Victim must never return a pinned
	// page, a non-resident page, or a page whose frame the pass's
	// constraint rejects; the manager enforces this and fails loudly.
	Victim(h PolicyHost) (id PageID, flags kernel.PageFlags, ok bool, err error)
}

// ---- registry ----

var (
	policyMu        sync.RWMutex
	policyFactories = map[string]func() Policy{}
)

// RegisterPolicy registers a named policy factory. Factories must return a
// fresh instance per call (instances are stateful and single-manager).
func RegisterPolicy(name string, factory func() Policy) {
	policyMu.Lock()
	defer policyMu.Unlock()
	if name == "" || factory == nil {
		panic("manager: RegisterPolicy with empty name or nil factory")
	}
	if _, dup := policyFactories[name]; dup {
		panic("manager: duplicate policy " + name)
	}
	policyFactories[name] = factory
}

// NewPolicy returns a fresh instance of the named policy.
func NewPolicy(name string) (Policy, error) {
	policyMu.RLock()
	f, ok := policyFactories[name]
	policyMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("manager: unknown policy %q (have %v)", name, PolicyNames())
	}
	return f(), nil
}

// PolicyNames lists the registered policy names, sorted.
func PolicyNames() []string {
	policyMu.RLock()
	defer policyMu.RUnlock()
	names := make([]string, 0, len(policyFactories))
	for n := range policyFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ---- host implementation ----

// policyHost adapts a Generic to the PolicyHost interface. One instance
// lives on the manager; Reclaim points constraint at the pass in progress.
type policyHost struct {
	g          *Generic
	constraint phys.Range
}

var _ PolicyHost = (*policyHost)(nil)

func (h *policyHost) ResidentLen() int { return len(h.g.resident) }

func (h *policyHost) ResidentAt(i int) PageID {
	k := h.g.resident[i]
	return PageID{Seg: k.seg, Page: k.page}
}

func (h *policyHost) Sample(id PageID) (kernel.PageAttribute, error) {
	return h.g.k.GetPageAttribute(id.Seg, id.Page)
}

func (h *policyHost) SampleMany(seg *kernel.Segment, pages []int64, dst []kernel.PageAttribute) ([]kernel.PageAttribute, error) {
	return h.g.k.GetPageAttributesBatch(seg, pages, dst)
}

func (h *policyHost) ClearReferenced(id PageID) error {
	return h.g.k.ModifyPageFlags(kernel.AppCred, id.Seg, id.Page, 1, 0, kernel.FlagReferenced)
}

func (h *policyHost) ClearReferencedMany(seg *kernel.Segment, pages []int64) error {
	if len(pages) == 0 {
		return nil
	}
	h.g.rangeScratch = kernel.CoalesceRangesInto(h.g.rangeScratch[:0], pages, pages)
	return h.g.k.ModifyPageFlagsBatch(kernel.AppCred, seg, h.g.rangeScratch, 0, kernel.FlagReferenced)
}

func (h *policyHost) Admits(id PageID) bool {
	if !h.constraint.Constrained() {
		return true
	}
	return h.constraint.Admits(id.Seg.FrameAt(id.Page))
}

func (h *policyHost) Forget(id PageID) {
	h.g.removeResident(resKey{seg: id.Seg, page: id.Page})
}

// ---- clock (the default, golden-parity policy) ----

// clockPolicy is the §2.2 clock sweep extracted from Generic, hand and
// all. It keeps no structures of its own: it sweeps the manager's shared
// resident list, so its charged-call sequence — one GetPageAttribute per
// step, one ModifyPageFlags per second chance — is byte-identical to the
// pre-policy code, which the reproduce.golden file pins.
type clockPolicy struct {
	hand int
}

// NewClockPolicy returns the default clock replacement policy.
func NewClockPolicy() Policy { return &clockPolicy{} }

func init() { RegisterPolicy("clock", NewClockPolicy) }

func (c *clockPolicy) PolicyName() string        { return "clock" }
func (c *clockPolicy) Insert(PolicyHost, PageID) {}
func (c *clockPolicy) Touch(PolicyHost, PageID)  {}

func (c *clockPolicy) Remove(h PolicyHost, _ PageID) {
	// Mirror the pre-policy hand reset: the manager swap-removed one
	// entry, so a hand past the new end restarts the sweep.
	if c.hand > h.ResidentLen() {
		c.hand = 0
	}
}

func (c *clockPolicy) Victim(h PolicyHost) (PageID, kernel.PageFlags, bool, error) {
	sweeps := 2 * h.ResidentLen()
	for step := 0; step < sweeps && h.ResidentLen() > 0; step++ {
		if c.hand >= h.ResidentLen() {
			c.hand = 0
		}
		id := h.ResidentAt(c.hand)
		a, err := h.Sample(id)
		if err != nil {
			return PageID{}, 0, false, err
		}
		if !a.Present {
			// The page left this manager's control (e.g. application
			// migrated it); forget it. Forget swap-removes, so the hand
			// stays put and now points at the swapped-in entry.
			h.Forget(id)
			continue
		}
		if a.Flags.Has(kernel.FlagPinned) {
			c.hand++
			continue
		}
		if !h.Admits(id) {
			c.hand++
			continue
		}
		if a.Flags.Has(kernel.FlagReferenced) {
			// Second chance.
			if err := h.ClearReferenced(id); err != nil {
				return PageID{}, 0, false, err
			}
			c.hand++
			continue
		}
		return id, a.Flags, true, nil
	}
	return PageID{}, 0, false, nil
}
