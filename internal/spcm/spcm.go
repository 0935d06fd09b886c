// Package spcm implements the System Page Cache Manager (§2.4): the
// process-level module that owns the global memory pool (the kernel's
// boot-time segment of all page frames) and allocates frames among segment
// managers — including requests for particular frames by physical address,
// address range, cache color or NUMA node.
//
// Allocation among competing managers follows the paper's "memory market"
// model: each account receives an income of I drams per second, holding M
// megabytes for T seconds costs M·D·T drams, savings above a threshold are
// taxed (the market has fixed price and fixed supply, so hoarding must be
// discouraged), I/O carries a charge so scan-structured programs cannot
// trade memory for unbounded I/O, and memory is free when there is no
// contention. Accounts that exhaust their dram supply have their memory
// forcibly reclaimed — but, critically, *their segment manager* chooses
// which page frames to surrender (§4).
package spcm

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
)

// ErrNotRegistered reports a request from a manager with no account.
var ErrNotRegistered = errors.New("spcm: manager has no account")

// Policy sets the market parameters.
type Policy struct {
	// PricePerMBSecond is D: drams charged per megabyte held per second.
	PricePerMBSecond float64
	// DefaultIncome is I: drams earned per second by a new account.
	DefaultIncome float64
	// SavingsTaxRate is the fraction of balance above SavingsTaxFloor
	// taxed away per second.
	SavingsTaxRate float64
	// SavingsTaxFloor is the untaxed balance.
	SavingsTaxFloor float64
	// IOChargePerPage is the dram charge per page of I/O an account
	// performs.
	IOChargePerPage float64
	// FreeWhenUncontended waives the holding charge while no requests are
	// outstanding ("the SPCM can allow a process to continue to use memory
	// at no charge when there are no outstanding memory requests").
	FreeWhenUncontended bool
	// MinGrantBalance is the balance below which new requests are refused.
	MinGrantBalance float64
	// LaneCacheRefill, when positive, gives every account a private
	// two-level frame cache (phys.FrameCache) over the shared free list,
	// batch-refilled this many frames at a time: unconstrained grants come
	// out of the cache, so concurrent lanes stop meeting on the free-list
	// stripes. Zero disables the caches — frames always move straight
	// between the shared pool and managers, preserving the exact grant
	// and exhaustion order the market experiments (and the golden output)
	// were recorded with.
	LaneCacheRefill int
}

// DefaultPolicy returns a workable market: a dram per MB-second, income
// sized so an account can afford tens of MB continuously.
func DefaultPolicy() Policy {
	return Policy{
		PricePerMBSecond:    1.0,
		DefaultIncome:       32.0, // sustains 32 MB held forever
		SavingsTaxRate:      0.01,
		SavingsTaxFloor:     1000,
		IOChargePerPage:     0.05,
		FreeWhenUncontended: true,
		MinGrantBalance:     0,
	}
}

// Account is one client of the memory market. Each account carries its own
// lock — the ledger's shard — so two managers settling, being charged or
// requesting frames never touch a common mutex. Income is immutable after
// Register; everything else is guarded by mu.
type Account struct {
	name   string
	mgr    *manager.Generic
	income float64 // drams per second; immutable

	mu         sync.Mutex
	balance    float64
	lastSettle time.Duration
	ioPages    int64
	// statistics
	earned, rentPaid, taxPaid, ioPaid float64

	// cache (nil unless Policy.LaneCacheRefill > 0) and the grant scratch
	// buffers are owned by the account's request path, which runs in the
	// manager's own delivery context — they take no lock. Control-plane
	// users (Revoke, CheckInvariants) only touch the cache from contexts
	// where that lane is quiet.
	cache       *phys.FrameCache
	grantPFNs   []int64
	grantSlots  []int64
	grantRanges []kernel.PageRange
}

// Name returns the account name.
func (a *Account) Name() string { return a.name }

// Balance returns the current dram balance (settle first for freshness).
func (a *Account) Balance() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.balance
}

// Income returns the account's income in drams per second.
func (a *Account) Income() float64 { return a.income }

// HeldPages reports the frames currently charged to the account: the
// manager's free pool plus everything it has placed in segments.
func (a *Account) HeldPages() int { return a.mgr.FreeFrames() + a.mgr.ResidentPages() }

// RentPaid, TaxPaid, IOPaid and Earned report lifetime totals.
func (a *Account) RentPaid() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rentPaid
}
func (a *Account) TaxPaid() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.taxPaid
}
func (a *Account) IOPaid() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ioPaid
}
func (a *Account) Earned() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.earned
}

// Stats counts SPCM decisions.
type Stats struct {
	Granted        int64 // frames granted
	Refused        int64 // requests refused outright
	Deferred       int64 // requests partially satisfied or postponed
	Returned       int64 // frames returned voluntarily
	ForcedReclaims int64 // frames taken from insolvent accounts
	Revocations    int64 // accounts closed by manager revocation
}

type statCounters struct {
	granted, refused, deferred, returned, forcedReclaims, revocations atomic.Int64
}

// SPCM is the system page cache manager.
//
// The ledger is sharded so managers running on separate goroutines (the
// kernel's concurrent delivery scheduler) never rendezvous on a global
// lock: each Account carries its own mutex for balance arithmetic, the
// free pool is a striped phys.FreeList, unmet demand and decision counters
// are atomics, and the registry (accounts, order, grant gate) sits behind
// an RWMutex that the hot paths only read-lock. Lock ordering: registry
// read-lock → account mutex → free-list stripe → kernel segment locks;
// nothing is held across a call *into* a manager's reclaim path, because
// reclamation re-enters the SPCM via ReturnFrames. SettleAll and Enforce
// settle accounts against their managers' page counts, so they should run
// from a control point (the market tick), not from inside that manager's
// own fault handling.
type SPCM struct {
	k      *kernel.Kernel
	clock  *sim.Clock
	policy Policy

	// regMu guards the registry: accounts, order and grantGate.
	regMu    sync.RWMutex
	accounts map[*manager.Generic]*Account
	// order lists accounts in registration order; SettleAll and Enforce
	// iterate it instead of the accounts map so injected fault schedules
	// (and their event logs) are byte-identical run to run.
	order []*manager.Generic
	// grantGate, when set, may veto a frame grant — the fault plane's
	// transient frame-exhaustion injection. A vetoed request is refused,
	// not an error; the requesting manager falls back to reclamation.
	// Gates are stateful (injection counters), so invocations are
	// serialized by gateMu.
	grantGate func(n int) bool
	gateMu    sync.Mutex

	// free holds boot-segment page numbers (== PFNs) available to grant,
	// striped by PFN block so grants and returns on different parts of the
	// pool never contend.
	free *phys.FreeList

	// unmetDemand drives the FreeWhenUncontended rule: number of frames
	// requested but not granted since the last settle-all.
	unmetDemand atomic.Int64

	stats statCounters
}

// pagesPerMB for the standard 4 KB frame.
func (s *SPCM) pagesPerMB() float64 {
	return float64(1<<20) / float64(s.k.Mem().FrameSize())
}

// New builds an SPCM owning every frame not already migrated out of the
// kernel's boot segment.
func New(k *kernel.Kernel, policy Policy) *SPCM {
	s := &SPCM{
		k:        k,
		clock:    k.Clock(),
		policy:   policy,
		accounts: make(map[*manager.Generic]*Account),
	}
	s.free = phys.NewFreeList(k.BootSegment().Pages())
	return s
}

// Withdraw takes the frames [start, start+n) out of the pool for good, so
// that a manager.FixedPool stocked from them after boot owns them alone. It
// takes none of them unless all n are free (a refused withdraw files the
// free ones back at the ends of their stripes).
func (s *SPCM) Withdraw(start, n int64) error {
	pfns := s.free.Pop(int(n), func(pfn int64) bool { return pfn >= start && pfn < start+n })
	if int64(len(pfns)) < n {
		s.free.Push(pfns)
		return fmt.Errorf("spcm: withdraw frames [%d, %d): %d of them are free", start, start+n, len(pfns))
	}
	return nil
}

// FreeFrames reports the number of unallocated frames: the shared free
// list plus every account's private frame cache (frames parked in a cache
// are still unallocated, just reserved for one lane's fast path).
func (s *SPCM) FreeFrames() int {
	n := s.free.Len()
	s.regMu.RLock()
	for _, a := range s.accounts {
		if a.cache != nil {
			n += a.cache.Len()
		}
	}
	s.regMu.RUnlock()
	return n
}

// Stats returns a snapshot of decision counters.
func (s *SPCM) Stats() Stats {
	return Stats{
		Granted:        s.stats.granted.Load(),
		Refused:        s.stats.refused.Load(),
		Deferred:       s.stats.deferred.Load(),
		Returned:       s.stats.returned.Load(),
		ForcedReclaims: s.stats.forcedReclaims.Load(),
		Revocations:    s.stats.revocations.Load(),
	}
}

// Policy returns the market policy.
func (s *SPCM) Policy() Policy { return s.policy }

// Register opens an account for a manager. income <= 0 selects the policy
// default. The manager's Config.Source should be this SPCM.
func (s *SPCM) Register(g *manager.Generic, name string, income float64) *Account {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if income <= 0 {
		income = s.policy.DefaultIncome
	}
	a := &Account{name: name, mgr: g, income: income, lastSettle: s.clock.Now()}
	if s.policy.LaneCacheRefill > 0 {
		a.cache = phys.NewFrameCache(s.free, 0, 0, s.policy.LaneCacheRefill)
	}
	s.accounts[g] = a
	s.order = append(s.order, g)
	return a
}

// SetGrantGate installs (or, with nil, removes) the grant gate consulted by
// RequestFrames and RequestContiguous before frames are picked.
func (s *SPCM) SetGrantGate(gate func(n int) bool) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	s.grantGate = gate
}

// Account returns the account of a registered manager.
func (s *SPCM) Account(g *manager.Generic) (*Account, bool) {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	a, ok := s.accounts[g]
	return a, ok
}

// lookup resolves a manager's account and the current grant gate under the
// registry read lock.
func (s *SPCM) lookup(g *manager.Generic) (*Account, func(n int) bool, error) {
	s.regMu.RLock()
	a, ok := s.accounts[g]
	gate := s.grantGate
	s.regMu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotRegistered, g.ManagerName())
	}
	return a, gate, nil
}

// settleLocked brings one account's balance up to date: income accrues,
// rent is charged for held memory (unless memory is uncontended and the
// policy waives it), savings are taxed, and accumulated I/O is charged.
// The caller holds a.mu.
func (s *SPCM) settleLocked(a *Account) {
	now := s.clock.Now()
	dt := (now - a.lastSettle).Seconds()
	a.lastSettle = now
	if dt > 0 {
		earn := a.income * dt
		a.balance += earn
		a.earned += earn
		// Rent applies whenever contention exists or the waiver is off.
		if !(s.policy.FreeWhenUncontended && s.unmetDemand.Load() == 0) {
			heldMB := float64(a.HeldPages()) / s.pagesPerMB()
			rent := heldMB * s.policy.PricePerMBSecond * dt
			a.balance -= rent
			a.rentPaid += rent
		}
		if excess := a.balance - s.policy.SavingsTaxFloor; excess > 0 && s.policy.SavingsTaxRate > 0 {
			tax := excess * s.policy.SavingsTaxRate * dt
			if tax > excess {
				tax = excess
			}
			a.balance -= tax
			a.taxPaid += tax
		}
	}
	if a.ioPages > 0 {
		io := float64(a.ioPages) * s.policy.IOChargePerPage
		a.balance -= io
		a.ioPaid += io
		a.ioPages = 0
	}
}

// ordered snapshots the accounts in registration order.
func (s *SPCM) ordered() []*Account {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	accts := make([]*Account, len(s.order))
	for i, g := range s.order {
		accts[i] = s.accounts[g]
	}
	return accts
}

// SettleAll settles every account (periodic market tick), in registration
// order for deterministic schedules.
func (s *SPCM) SettleAll() {
	for _, a := range s.ordered() {
		a.mu.Lock()
		s.settleLocked(a)
		a.mu.Unlock()
	}
}

// ChargeIO records n pages of I/O against a manager's account. No manager
// path calls it: the kernel delivers every fault alone, and a fault's fill
// is not billed (DESIGN §16). It is a stub kept because bench/ calls it;
// ROADMAP item 7 removes it, unless item 4's one I/O billing rule bills
// every fill through it.
func (s *SPCM) ChargeIO(g *manager.Generic, pages int64) {
	s.regMu.RLock()
	a, ok := s.accounts[g]
	s.regMu.RUnlock()
	if !ok {
		return
	}
	a.mu.Lock()
	a.ioPages += pages
	a.mu.Unlock()
}

// subDemand decrements unmet demand by n, clamping at zero.
func (s *SPCM) subDemand(n int64) {
	for {
		cur := s.unmetDemand.Load()
		if cur == 0 {
			return
		}
		next := cur - n
		if next < 0 {
			next = 0
		}
		if s.unmetDemand.CompareAndSwap(cur, next) {
			return
		}
	}
}

// vetoed consults the grant gate, serializing stateful injectors.
func (s *SPCM) vetoed(gate func(n int) bool, n int) bool {
	if gate == nil {
		return false
	}
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	return !gate(n)
}

var _ manager.FrameSource = (*SPCM)(nil)

// admit is the preamble of every grant: resolve the account, settle it, and
// refuse an insolvent account or a request the grant gate vetoes (injected
// transient exhaustion: the pool acts empty and the manager falls back to
// local reclamation). Every refusal is counted; all add n to unmet demand
// except an insolvent contiguous request.
func (s *SPCM) admit(g *manager.Generic, n int, contiguous bool) (*Account, bool, error) {
	a, gate, err := s.lookup(g)
	if err != nil {
		return nil, false, err
	}
	a.mu.Lock()
	s.settleLocked(a)
	insolvent := a.balance < s.policy.MinGrantBalance
	a.mu.Unlock()
	if !insolvent && !s.vetoed(gate, n) {
		return a, true, nil
	}
	s.stats.refused.Add(1)
	if !(insolvent && contiguous) {
		s.unmetDemand.Add(int64(n))
	}
	return a, false, nil
}

// deferred counts a request the pool could not fully serve.
func (s *SPCM) deferred(short int) {
	s.stats.deferred.Add(1)
	s.unmetDemand.Add(int64(short))
}

// deliver moves the picked boot pages into slots g reserves in its free
// segment, as one batched kernel call. Frames are coalesced into ranges
// where both their numbers and their slots run on; when picked is whole runs
// of runLen frames each run starts a range of its own, so it stays one range
// (the refilling manager's plan makes a run's slots consecutive) and never
// merges with its neighbour. A migration error rolls the whole grant back —
// the slots to the manager, the frames to the free pool. The account's
// scratch buffers are safe to reuse here because ReserveSlots already
// demands the manager's own delivery context. It reports the number of
// frames granted.
func (s *SPCM) deliver(a *Account, g *manager.Generic, picked []int64, runLen int) (int, error) {
	a.grantSlots = g.ReserveSlots(a.grantSlots[:0], len(picked))
	ranges := a.grantRanges[:0]
	for j, pfn := range picked {
		if runLen > 0 && j%runLen == 0 {
			ranges = append(ranges, kernel.PageRange{Page: pfn, To: a.grantSlots[j], Pages: 1})
		} else {
			ranges = kernel.AppendRange(ranges, pfn, a.grantSlots[j])
		}
	}
	a.grantRanges = ranges
	err := s.k.MigratePagesBatch(kernel.SystemCred, s.k.BootSegment(), g.FreeSegment(), ranges, 0, 0)
	if g.Granted(a.grantSlots, err); err != nil {
		s.free.Push(picked)
		return 0, err
	}
	s.stats.granted.Add(int64(len(picked)))
	return len(picked), nil
}

// RequestFrames implements manager.FrameSource: grant, defer or refuse. Up
// to n frames satisfying the constraint are granted (fewer than n is the
// paper's "allocates and provides as many page frames as it can or is
// willing to").
func (s *SPCM) RequestFrames(g *manager.Generic, n int, constraint phys.Range) (int, error) {
	a, ok, err := s.admit(g, n, false)
	if !ok {
		return 0, err
	}
	picked := s.pickFrames(a, n, constraint)
	if len(picked) < n {
		s.deferred(n - len(picked))
	}
	if len(picked) == 0 {
		return 0, nil
	}
	return s.deliver(a, g, picked, 0)
}

// pickFrames takes up to n admitted frames out of the pool. Unconstrained
// grants (every fault without a Constraint hook) come from the account's
// private cache when it has one, so only its batch refills touch the shared
// stripes; constrained requests bypass the cache, because the shared pool
// has the full frame population to filter.
func (s *SPCM) pickFrames(a *Account, n int, constraint phys.Range) []int64 {
	if !constraint.Constrained() {
		if a.cache != nil {
			a.grantPFNs = a.cache.Pop(a.grantPFNs[:0], n)
			return a.grantPFNs
		}
		return s.free.Pop(n, nil)
	}
	return s.free.Pop(n, func(pfn int64) bool {
		return constraint.Admits(s.k.Mem().Frame(phys.PFN(pfn)))
	})
}

// RequestContiguous grants one naturally aligned run of n physically
// contiguous frames (for large pages via MigrateCoalesced) into the target
// manager's free segment: RequestContiguousRuns for one run, in frames. It
// reports 0 when n is not a power of two within the free list's aligned-run
// reach or no such run is free.
func (s *SPCM) RequestContiguous(g *manager.Generic, n int) (int, error) {
	runs, err := s.RequestContiguousRuns(g, n, 1)
	return runs * n, err
}

// RequestContiguousRuns grants up to count physically contiguous, naturally
// aligned runs of n frames each in ONE market round trip: one account
// settle, one veto check, and one batched boot-segment migration with one
// range per run — so a manager refilling its extent-run magazine pays the
// grant overhead once per count extents instead of once per extent. Only
// power-of-two n within the free list's aligned-run reach is served; the
// reply is the number of whole runs granted, which may be less than count —
// zero when the pool has no aligned run at all.
func (s *SPCM) RequestContiguousRuns(g *manager.Generic, n, count int) (int, error) {
	order := runOrder(n)
	if order < 0 || count <= 0 {
		return 0, nil
	}
	a, ok, err := s.admit(g, n, true)
	if !ok {
		return 0, err
	}
	picked := s.pickRuns(a, n, order, count)
	if len(picked) == 0 {
		s.deferred(n)
		return 0, nil
	}
	got, err := s.deliver(a, g, picked, n)
	return got / n, err
}

// pickRuns collects up to count aligned runs of n = 2^order frames from the
// shared free list.
func (s *SPCM) pickRuns(a *Account, n, order, count int) []int64 {
	pfns := a.grantPFNs[:0]
	for ok := true; ok && len(pfns) < n*count; {
		pfns, ok = s.free.AllocRunAppend(pfns, order, nil)
	}
	a.grantPFNs = pfns
	return pfns
}

// runOrder returns log2(n) when n is a power of two no larger than the free
// list's largest aligned run, else -1.
func runOrder(n int) int {
	if n < 1 || n > 1<<phys.MaxRunOrder || n&(n-1) != 0 {
		return -1
	}
	return bits.TrailingZeros(uint(n))
}

// ReturnFrames implements manager.FrameSource: frames come home to the
// boot segment, as one batched migration.
func (s *SPCM) ReturnFrames(g *manager.Generic, slots []int64) error {
	if _, _, err := s.lookup(g); err != nil {
		return err
	}
	if len(slots) == 0 {
		return nil
	}
	pfns := make([]int64, len(slots))
	for i, slot := range slots {
		frame := g.FreeSegment().FrameAt(slot)
		if frame == nil {
			return fmt.Errorf("spcm: return of empty slot %d from %s", slot, g.ManagerName())
		}
		pfns[i] = int64(frame.PFN())
	}
	ranges := kernel.CoalesceRanges(slots, pfns)
	if err := s.k.MigratePagesBatch(kernel.SystemCred, g.FreeSegment(), s.k.BootSegment(),
		ranges, 0, kernel.FlagRW|kernel.FlagDirty|kernel.FlagReferenced|kernel.FlagDiscardable); err != nil {
		return err
	}
	s.free.Push(pfns)
	s.stats.returned.Add(int64(len(slots)))
	s.subDemand(int64(len(slots)))
	return nil
}

// Enforce settles all accounts and forces insolvent ones to give memory
// back: the account's own manager reclaims (choosing its victims — the
// manager keeps complete control over *which* frames to surrender) and the
// freed frames return to the pool. Returns the number of frames reclaimed.
//
// Enforcement must survive injected failures mid-reclaim: an error against
// one account (a writeback that fails during its reclaim, say) does not stop
// enforcement of the others. Accounts are processed in registration order;
// per-account errors are joined into the returned error.
//
// No SPCM-wide lock exists to hold: phase one settles each account under
// its own mutex, and phase two calls into the managers' reclaim paths with
// nothing held at all, so a manager surrendering frames re-enters the SPCM
// through ReturnFrames without contending with other accounts' enforcement
// or concurrent grants.
func (s *SPCM) Enforce() (int, error) {
	type demand struct {
		g     *manager.Generic
		name  string
		pages int
	}
	var work []demand
	for _, a := range s.ordered() {
		a.mu.Lock()
		s.settleLocked(a)
		bal := a.balance
		a.mu.Unlock()
		if bal >= 0 {
			continue
		}
		// Leave the account what keeps it solvent for the next second —
		// it may hold (income + balance)/price MB, since its income less
		// that second's rent must cover the debt — and take back the
		// rest, at least one page.
		keepMB := max(0, a.income+bal) / s.policy.PricePerMBSecond
		held := a.HeldPages()
		pages := min(max(held-int(keepMB*s.pagesPerMB()), 1), held)
		if pages == 0 {
			continue
		}
		work = append(work, demand{g: a.mgr, name: a.name, pages: pages})
	}

	total := 0
	var errs []error
	for _, w := range work {
		g, pages := w.g, w.pages
		if g.FreeFrames() < pages {
			if _, err := g.Reclaim(pages-g.FreeFrames(), phys.AnyFrame()); err != nil {
				// Partial reclaim: return whatever freed up and move on.
				errs = append(errs, fmt.Errorf("spcm: enforce %s: %w", w.name, err))
			}
		}
		want := pages
		if free := g.FreeFrames(); want > free {
			want = free
		}
		if want == 0 {
			continue
		}
		n, err := g.ReturnFreeFrames(want)
		if err != nil {
			errs = append(errs, fmt.Errorf("spcm: enforce %s: %w", w.name, err))
			continue
		}
		total += n
	}
	s.stats.forcedReclaims.Add(int64(total))
	return total, errors.Join(errs...)
}

// Revoke closes a dead manager's account and repossesses its free-page
// segment: every frame in it migrates back to the boot segment and rejoins
// the free pool, and the now-empty free segment is deleted. The manager's
// *resident* pages are not touched — those live in segments the kernel has
// already reassigned to the default manager. Returns the number of frames
// repossessed.
func (s *SPCM) Revoke(g *manager.Generic) (int, error) {
	s.regMu.Lock()
	a, ok := s.accounts[g]
	if !ok {
		s.regMu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrNotRegistered, g.ManagerName())
	}
	delete(s.accounts, g)
	for i, og := range s.order {
		if og == g {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.regMu.Unlock()
	s.stats.revocations.Add(1)
	// The account is out of the registry, so its lane can no longer reach
	// the cache; hand its parked frames back to the shared pool.
	if a.cache != nil {
		a.cache.Drain()
	}

	free := g.FreeSegment()
	slots := free.Pages()
	clear := kernel.FlagRW | kernel.FlagDirty | kernel.FlagReferenced | kernel.FlagDiscardable | kernel.FlagPinned
	n := 0
	var firstErr error
	if len(slots) > 0 {
		pfns := make([]int64, len(slots))
		for i, slot := range slots {
			pfns[i] = int64(free.FrameAt(slot).PFN())
		}
		ranges := kernel.CoalesceRanges(slots, pfns)
		if err := s.k.MigratePagesBatch(kernel.SystemCred, free, s.k.BootSegment(), ranges, 0, clear); err != nil {
			// Repossession must tolerate partial failure; fall back to
			// page-at-a-time and keep whatever comes home.
			for i, slot := range slots {
				if !free.HasPage(slot) {
					// Already migrated before the batch (or its unbatched
					// fallback) stopped.
					s.free.Push(pfns[i : i+1])
					n++
					continue
				}
				if err := s.k.MigratePages(kernel.SystemCred, free, s.k.BootSegment(),
					slot, pfns[i], 1, 0, clear); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				s.free.Push(pfns[i : i+1])
				n++
			}
		} else {
			s.free.Push(pfns)
			n = len(pfns)
		}
	}
	if firstErr == nil {
		// The free segment is empty; delete it. DeleteSegment would notify
		// the dead manager, so clear the manager binding first.
		s.k.SetSegmentManager(free, nil)
		if err := s.k.DeleteSegment(kernel.SystemCred, free); err != nil {
			firstErr = err
		}
	}
	s.subDemand(int64(n))
	return n, firstErr
}

// EstimateWait answers the batch scheduler's query (§2.4): how long until
// the account can afford to hold `pages` frames for `slice` of runtime,
// given current balance and income. Zero means it can afford it now.
func (s *SPCM) EstimateWait(a *Account, pages int, slice time.Duration) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	s.settleLocked(a)
	needMB := float64(pages) / s.pagesPerMB()
	cost := needMB * s.policy.PricePerMBSecond * slice.Seconds()
	if a.balance >= cost {
		return 0
	}
	if a.income <= 0 {
		return time.Duration(1<<62 - 1)
	}
	wait := (cost - a.balance) / a.income
	return time.Duration(wait * float64(time.Second))
}

// Demand reports current unmet demand in frames (the §2.4 "queries to the
// SPCM [to] determine the demand on memory").
func (s *SPCM) Demand() int { return int(s.unmetDemand.Load()) }
