// Package kernel implements the V++ kernel virtual memory system of the
// paper: segments, bound regions (including copy-on-write), the global
// mapping hash table and TLB, and the external page-cache management
// operations SetSegmentManager, MigratePages, ModifyPageFlags and
// GetPageAttributes.
//
// The kernel deliberately does *no* page reclamation, no writeback and no
// allocation policy — those live in process-level segment managers (package
// manager, defaultmgr and spcm). Its job is exactly the paper's: keep the
// mapping structures, move page frames between segments as told, and
// deliver fault events to the managers, charging the machine cost model for
// every step so the experiments can measure path lengths.
//
// Fault delivery runs through the scheduler in scheduler.go: a fault is
// either a direct call into the owning manager on the faulting goroutine
// (serial scheduler, the deterministic default) or a message on the
// manager's lane (concurrent scheduler). To support the
// latter, the kernel's mutable state is locked at three levels: activity
// counters are atomic, each segment's page map and TLB are guarded by its
// own mutex — taken only under the concurrent scheduler (Segment.lock), as
// the serial one's mapping table and TLB are unsynchronized by contract —
// and the segment registry by a kernel-wide RWMutex. The lock order is
// kernel registry → segment (two segments in ascending ID order); the CAS
// mapping table takes no lock, and no kernel lock is ever held across a
// manager call.
package kernel

import (
	"fmt"
	"sync"
	"time"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

// Config sets kernel parameters. The zero value selects the paper's
// defaults.
type Config struct {
	// TLBEntries is the TLB size (64 on the R3000).
	TLBEntries int
	// MaxFaultRetries bounds how many times one memory reference may fault
	// before the kernel gives up with ErrFaultLoop.
	MaxFaultRetries int
	// Concurrent boots the kernel on the concurrent delivery-plane
	// scheduler, with the lock-free CAS mapping table and the per-segment
	// TLBs that go with it (SetScheduler). The zero value is the
	// deterministic serial scheduler.
	Concurrent bool
	// Superpages turns the superpage extent plane (superpage.go) on for
	// this kernel. Off, promotion refuses and every batch path charges
	// per page, so the golden output is byte-identical.
	Superpages bool
}

// Stats counts kernel activity. The fields correspond to the columns of the
// paper's Table 3 plus supporting detail.
type Stats struct {
	Accesses      int64 // simulated memory references
	Faults        int64 // total faults delivered to managers
	MissingFaults int64
	ProtFaults    int64
	COWFaults     int64
	ManagerCalls  int64 // fault deliveries + deletion notices (Table 3 col 1)
	MigrateCalls  int64 // MigratePages invocations (Table 3 col 2)
	MigratedPages int64
	ModifyCalls   int64
	GetAttrCalls  int64
	TLBHits       int64
	TLBMisses     int64
	HashHits      int64
	HashMisses    int64
	HashSpills    int64 // displacements into the hash overflow area
	HashDrops     int64 // displaced mappings lost to a full overflow area
	// Fault-plane / recovery counters.
	DroppedDeliveries int64 // fault deliveries lost before reaching a manager
	DelayedDeliveries int64 // fault deliveries charged an injected delay
	Revocations       int64 // managers declared dead and revoked
	RevokedSegments   int64 // segments reassigned to the default manager
	// Superpage-extent counters (superpage.go); all zero with the plane off.
	SuperpageOps     int64 // extent-granular operations charged SuperpageOp
	ExtentPromotions int64 // extents promoted (explicitly or by migrate fast path)
	ExtentDemotions  int64 // extents demoted (explicitly or by per-page hooks)
	// Vectored-delivery counters (vector.go); zero unless the concurrent
	// scheduler coalesced multi-fault runs into vectored upcalls.
	VectoredBatches int64 // vectored upcalls delivered
	VectoredFaults  int64 // faults carried by those upcalls
}

// kernelStats is the live counter set. Counters are atomic so concurrent
// managers and applications can charge them without a lock; Stats() takes
// a field-by-field snapshot into the plain Stats struct. The fault-path
// counters are striped by segment ID (sim/striped.go) and the rest padded to
// a cache line each, so concurrent lanes do not ping-pong one line.
type kernelStats struct {
	Accesses          sim.Striped
	Faults            sim.Striped
	MissingFaults     sim.Striped
	ProtFaults        sim.Striped
	COWFaults         sim.Striped
	ManagerCalls      sim.Striped
	MigrateCalls      sim.Striped
	MigratedPages     sim.Striped
	ModifyCalls       sim.Striped
	GetAttrCalls      sim.Striped
	TLBHits           sim.Striped
	TLBMisses         sim.Striped
	DroppedDeliveries sim.Padded
	DelayedDeliveries sim.Padded
	Revocations       sim.Padded
	RevokedSegments   sim.Padded
	SuperpageOps      sim.Padded
	ExtentPromotions  sim.Padded
	ExtentDemotions   sim.Padded
	VectoredBatches   sim.Padded
	VectoredFaults    sim.Padded
}

// Kernel is the simulated V++ kernel.
type Kernel struct {
	mem   *phys.Memory
	clock *sim.Clock
	cost  *sim.CostModel
	cfg   Config
	// mu guards the segment registry (segs, nextID). It is ordered before
	// any Segment.mu and is never held across a manager call.
	mu     sync.RWMutex
	segs   map[SegID]*Segment
	nextID SegID
	table  mapper
	// tlb is the serial scheduler's one TLB; under the concurrent scheduler
	// (concurrent, set by SetScheduler) each segment keeps its own. tlbOf
	// picks.
	tlb        *tlb
	concurrent bool
	sched      Scheduler
	// frameOwner records, for every physical frame, the segment that holds
	// it — the ground truth for the frame-conservation invariant. Entries
	// are written only under the owning segments' locks; the slices
	// themselves are fixed at boot.
	frameOwner []SegID
	framePage  []int64
	boot       *Segment
	stats      kernelStats
	// interceptor, defaultMgr and onRevoke support the fault plane and
	// manager-failure recovery; see revoke.go. All nil in normal operation;
	// set them at boot, before delivery traffic starts.
	interceptor DeliveryInterceptor
	defaultMgr  Manager
	onRevoke    func(dead Manager, adopted []*Segment)
	// managers interns the managerCell (segment.go) of every registered
	// manager: the registration-time table behind cellOf, never read from
	// Access down — a fault finds its cell through its segment.
	mgrMu    sync.Mutex
	managers map[Manager]*managerCell
}

// cellOf returns the kernel's record of m, creating it at m's first
// registration; nil for a nil manager.
func (k *Kernel) cellOf(m Manager) *managerCell {
	if m == nil {
		return nil
	}
	k.mgrMu.Lock()
	defer k.mgrMu.Unlock()
	c, ok := k.managers[m]
	if !ok {
		c = &managerCell{m: m}
		k.managers[m] = c
	}
	return c
}

// New boots a kernel over the given memory, clock and cost model. Following
// §2.1, it creates the well-known segment holding all page frames in
// physical-address order, restricted to privileged (system) credentials.
// The boot segment's page store is laid out in one straight pass
// (identityRun) and the frame owner and page tables in a second: exactly
// what one put per frame would build, without the per-page put. The
// delivery-plane scheduler is the deterministic serial one unless
// cfg.Concurrent asks for the concurrent one.
func New(mem *phys.Memory, clock *sim.Clock, cost *sim.CostModel, cfg Config) *Kernel {
	if cfg.TLBEntries <= 0 {
		cfg.TLBEntries = 64
	}
	if cfg.MaxFaultRetries <= 0 {
		cfg.MaxFaultRetries = 8
	}
	k := &Kernel{
		mem:        mem,
		clock:      clock,
		cost:       cost,
		cfg:        cfg,
		segs:       make(map[SegID]*Segment),
		managers:   make(map[Manager]*managerCell),
		nextID:     WellKnownPhysSegment,
		table:      newMappingTable(),
		tlb:        newTLB(cfg.TLBEntries),
		frameOwner: make([]SegID, mem.NumFrames()),
		framePage:  make([]int64, mem.NumFrames()),
	}
	if cfg.Concurrent {
		k.SetScheduler(NewConcurrentScheduler(k))
	} else {
		k.SetScheduler(NewSerialScheduler(k))
	}
	boot := k.newSegment("physmem", 1)
	boot.restricted = true
	boot.staging = true
	boot.identity = true
	boot.pages.identityRun(int64(mem.NumFrames()))
	for pfn := range k.frameOwner {
		k.frameOwner[pfn] = boot.id
		k.framePage[pfn] = int64(pfn)
	}
	k.boot = boot
	return k
}

// Mem returns the machine's physical memory.
func (k *Kernel) Mem() *phys.Memory { return k.mem }

// Clock returns the virtual clock all costs are charged to.
func (k *Kernel) Clock() *sim.Clock { return k.clock }

// Cost returns the machine cost model.
func (k *Kernel) Cost() *sim.CostModel { return k.cost }

// Stats returns a snapshot of kernel activity counters. The TLB counters
// are kernel counters striped by segment like the other fault-path ones, so
// Stats walks no segment and a deleted segment's hits and misses stay
// counted; the mapping hash-table counters are read through the same
// accessor pair ResetStats clears, so the two cannot drift.
func (k *Kernel) Stats() Stats {
	s := Stats{
		Accesses:          k.stats.Accesses.Load(),
		Faults:            k.stats.Faults.Load(),
		MissingFaults:     k.stats.MissingFaults.Load(),
		ProtFaults:        k.stats.ProtFaults.Load(),
		COWFaults:         k.stats.COWFaults.Load(),
		ManagerCalls:      k.stats.ManagerCalls.Load(),
		MigrateCalls:      k.stats.MigrateCalls.Load(),
		MigratedPages:     k.stats.MigratedPages.Load(),
		ModifyCalls:       k.stats.ModifyCalls.Load(),
		GetAttrCalls:      k.stats.GetAttrCalls.Load(),
		TLBHits:           k.stats.TLBHits.Load(),
		TLBMisses:         k.stats.TLBMisses.Load(),
		DroppedDeliveries: k.stats.DroppedDeliveries.Load(),
		DelayedDeliveries: k.stats.DelayedDeliveries.Load(),
		Revocations:       k.stats.Revocations.Load(),
		RevokedSegments:   k.stats.RevokedSegments.Load(),
		SuperpageOps:      k.stats.SuperpageOps.Load(),
		ExtentPromotions:  k.stats.ExtentPromotions.Load(),
		ExtentDemotions:   k.stats.ExtentDemotions.Load(),
		VectoredBatches:   k.stats.VectoredBatches.Load(),
		VectoredFaults:    k.stats.VectoredFaults.Load(),
	}
	s.HashHits, s.HashMisses, s.HashSpills, s.HashDrops = k.table.stats()
	return s
}

// ResetStats zeroes the activity counters (not the mapping state).
func (k *Kernel) ResetStats() {
	k.stats.store(Stats{})
	k.table.resetStats()
}

// store sets every counter to its field of s; the mapping table's counters
// are the table's own.
func (ks *kernelStats) store(s Stats) {
	ks.Accesses.Store(s.Accesses)
	ks.Faults.Store(s.Faults)
	ks.MissingFaults.Store(s.MissingFaults)
	ks.ProtFaults.Store(s.ProtFaults)
	ks.COWFaults.Store(s.COWFaults)
	ks.ManagerCalls.Store(s.ManagerCalls)
	ks.MigrateCalls.Store(s.MigrateCalls)
	ks.MigratedPages.Store(s.MigratedPages)
	ks.ModifyCalls.Store(s.ModifyCalls)
	ks.GetAttrCalls.Store(s.GetAttrCalls)
	ks.TLBHits.Store(s.TLBHits)
	ks.TLBMisses.Store(s.TLBMisses)
	ks.DroppedDeliveries.Store(s.DroppedDeliveries)
	ks.DelayedDeliveries.Store(s.DelayedDeliveries)
	ks.Revocations.Store(s.Revocations)
	ks.RevokedSegments.Store(s.RevokedSegments)
	ks.SuperpageOps.Store(s.SuperpageOps)
	ks.ExtentPromotions.Store(s.ExtentPromotions)
	ks.ExtentDemotions.Store(s.ExtentDemotions)
	ks.VectoredBatches.Store(s.VectoredBatches)
	ks.VectoredFaults.Store(s.VectoredFaults)
}

// BootSegment returns the well-known segment of all page frames.
func (k *Kernel) BootSegment() *Segment { return k.boot }

// lockPair locks two segments in ascending ID order (or one, if equal),
// the global deadlock-avoidance order for multi-segment operations.
func lockPair(a, b *Segment) {
	switch {
	case a == b:
		a.lock()
	case a.id < b.id:
		a.lock()
		b.lock()
	default:
		b.lock()
		a.lock()
	}
}

func unlockPair(a, b *Segment) {
	a.unlock()
	if a != b {
		b.unlock()
	}
}

func (k *Kernel) newSegment(name string, framesPerPage int) *Segment {
	k.mu.Lock()
	defer k.mu.Unlock()
	s := &Segment{
		id:       k.nextID,
		name:     name,
		pageSize: framesPerPage * k.mem.FrameSize(),
		fpp:      framesPerPage,
		kernel:   k,
	}
	k.segs[s.id] = s
	k.nextID++
	return s
}

// CreateSegment creates an empty segment. framesPerPage selects the page
// size as a multiple of the machine frame size (§2.1: "a parameter to the
// segment creation call optionally specifies the page size"); pass 1 for
// the base 4 KB page.
func (k *Kernel) CreateSegment(name string, framesPerPage int) (*Segment, error) {
	if framesPerPage < 1 || framesPerPage&(framesPerPage-1) != 0 {
		return nil, fmt.Errorf("kernel: frames per page %d is not a positive power of two", framesPerPage)
	}
	s := k.newSegment(name, framesPerPage)
	k.clock.AdvanceOn(uint64(s.id), k.cost.KernelCall)
	return s, nil
}

// Lookup returns the live segment with the given id.
func (k *Kernel) Lookup(id SegID) (*Segment, error) {
	k.mu.RLock()
	s, ok := k.segs[id]
	k.mu.RUnlock()
	if ok {
		s.lock()
		ok = !s.deleted
		s.unlock()
	}
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNoSuchSegment, id)
	}
	return s, nil
}

// SetSegmentManager designates the manager module for a segment (§2.1).
// A manager change demotes every promoted extent: the incoming manager's
// promotion state starts cold, and a stale extent would otherwise outlive
// the density tracking that justified it.
func (k *Kernel) SetSegmentManager(s *Segment, m Manager) {
	k.clock.AdvanceOn(uint64(s.id), k.cost.KernelCall)
	c := k.cellOf(m)
	s.lock()
	if s.manager.Load() != c {
		k.dropAllExtentsLocked(s)
	}
	s.manager.Store(c)
	s.unlock()
}

// BindRegion associates pages [start, start+pages) of seg with
// [targetStart, ...) of target (§2.1). With cow set, the binding is
// copy-on-write: pages are effectively bound to the target until modified.
func (k *Kernel) BindRegion(seg *Segment, start, pages int64, target *Segment, targetStart int64, cow bool) error {
	k.clock.AdvanceOn(uint64(seg.id), k.cost.KernelCall)
	if pages <= 0 || start < 0 || targetStart < 0 {
		return fmt.Errorf("%w: bind [%d,+%d)", ErrBadRange, start, pages)
	}
	lockPair(seg, target)
	defer unlockPair(seg, target)
	if seg.deleted || target.deleted {
		return ErrNoSuchSegment
	}
	if seg.fpp != target.fpp {
		return fmt.Errorf("%w: bind across page sizes %d and %d", ErrPageSizeMismatch, seg.pageSize, target.pageSize)
	}
	return seg.addBinding(&binding{start: start, pages: pages, target: target, targetStart: targetStart, cow: cow})
}

// DeleteSegment removes a segment. The segment's manager is notified first
// so it can reclaim the frames (§2.2: "the manager is also informed when a
// segment it manages is closed or deleted"); any frames it leaves behind
// return to the boot segment so no frame is ever orphaned. The notice is
// delivered over the plane with no segment lock held — the manager
// migrates frames out of s while salvaging.
func (k *Kernel) DeleteSegment(cred Cred, s *Segment) error {
	s.lock()
	if s.restricted && !cred.Privileged {
		s.unlock()
		return fmt.Errorf("%w: delete %s by %q", ErrNotPrivileged, s, cred.Name)
	}
	if s.deleted {
		s.unlock()
		return ErrNoSuchSegment
	}
	c := s.manager.Load()
	s.unlock()
	k.clock.AdvanceOn(uint64(s.id), k.cost.KernelCall)
	if c != nil {
		k.sched.notifyDeleted(c, s)
	}
	// Reclaim whatever the manager left.
	lockPair(s, k.boot)
	if s.deleted {
		unlockPair(s, k.boot)
		return ErrNoSuchSegment // lost a delete race during the notice
	}
	s.pages.forEach(func(_ int64, e *pageEntry) bool {
		for pfn := e.pfn; pfn < e.pfn+phys.PFN(s.fpp); pfn++ {
			k.boot.pages.put(int64(pfn), pageEntry{pfn: pfn})
			k.frameOwner[pfn] = k.boot.id
			k.framePage[pfn] = int64(pfn)
		}
		return true
	})
	s.retireLocked()
	k.tlbOf(s).invalidateSegment(s.id)
	unlockPair(s, k.boot)
	k.mu.Lock()
	delete(k.segs, s.id)
	k.mu.Unlock()
	k.table.removeSegment(s.id)
	return nil
}

// MigratePages moves n page frames from src starting at srcPage to dst
// starting at dstPage, setting flags in set and clearing flags in clear on
// each migrated page (§2.1). The operation is validated first and applied
// all-or-nothing: every source page must be present and every destination
// slot empty. This and the other single-range spellings below are thin
// wrappers over the range bodies in batch.go, which state the charging and
// error-precedence rules; a MigratePages range is never applied as a
// superpage extent.
func (k *Kernel) MigratePages(cred Cred, src, dst *Segment, srcPage, dstPage, n int64, set, clear PageFlags) error {
	r := [1]PageRange{{Page: srcPage, To: dstPage, Pages: n}}
	return k.migrate(cred, src, dst, r[:], set, clear, false)
}

// cacheFill is the one rule for mapping-table and TLB maintenance. Filling:
// it reports whether pages of s get entries at all, and every insert and
// install site asks it first. Under the concurrent scheduler staging
// segments (boot, manager free pens) do not — applications never Access
// them, so the entries could only be evicted, never hit; the serial
// scheduler fills everything, keeping the paper's cache occupancy. A yes is
// recorded in s.named (callers hold s.mu). Removing: while s.named is false
// no entry of either structure has ever named s, so removing one of its
// keys is a guaranteed miss and the page-move bodies skip it — for the
// concurrent staging segments, and for the serial boot segment until frames
// first return to it: stocking a pool at boot probes no source-side slot.
func (k *Kernel) cacheFill(s *Segment) bool {
	if s.staging && k.sched.Concurrent() {
		return false
	}
	s.named = true
	return true
}

// ModifyPageFlags modifies the page flags of [page, page+n) without moving
// the frames (§2.1). Pages without frames in the range are an error.
func (k *Kernel) ModifyPageFlags(cred Cred, s *Segment, page, n int64, set, clear PageFlags) error {
	r := [1]PageRange{{Page: page, Pages: n}}
	return k.modifyFlags(cred, s, r[:], set, clear, false)
}

// PageAttribute is one element of a GetPageAttributes result: the page
// flags and the physical page-frame address (§2.1).
type PageAttribute struct {
	Page     int64
	Present  bool
	Flags    PageFlags
	PFN      phys.PFN
	PhysAddr int64
	Color    int
	Node     int
}

// GetPageAttributes returns the page flags and physical frame addresses of
// [page, page+n) (§2.1). Missing pages are reported with Present false
// rather than as errors, so managers can scan sparse segments.
func (k *Kernel) GetPageAttributes(s *Segment, page, n int64) ([]PageAttribute, error) {
	return k.getAttributes(s, nil, page, n, nil)
}

// GetPageAttribute is the single-page form of GetPageAttributes. It charges
// identically but returns the attribute by value, so reclaim loops that poll
// one page per step pay no slice allocation.
func (k *Kernel) GetPageAttribute(s *Segment, page int64) (PageAttribute, error) {
	var a [1]PageAttribute
	if _, err := k.getAttributes(s, nil, page, 1, a[:0]); err != nil {
		return PageAttribute{}, err
	}
	return a[0], nil
}

// chargeDelivery charges the cost of transferring control to a manager, on
// the clock stripe of the segment the delivery concerns.
func (k *Kernel) chargeDelivery(seg SegID, d DeliveryMode) {
	c := k.cost.ContextSwitch
	if d == DeliverSameProcess {
		c = k.cost.Upcall
	}
	k.clock.AdvanceOn(uint64(seg), c)
}

// chargeReturn charges the cost of resuming the application after the
// manager finishes.
func (k *Kernel) chargeReturn(seg SegID, d DeliveryMode) {
	var c time.Duration
	if d == DeliverSameProcess {
		// On the R3000 the manager resumes the application directly.
		c = k.cost.ResumeDirect
	} else {
		// Reply IPC, then the kernel restores the faulting process and
		// patches its translations.
		c = k.cost.ContextSwitch + k.cost.KernelCall +
			k.cost.ResumeViaKernel + 2*k.cost.MappingUpdate
	}
	k.clock.AdvanceOn(uint64(seg), c)
}

// Access simulates one memory reference by an application: page `page` of
// segment s with the given access type. It follows bound regions, consults
// the TLB and mapping hash table, delivers faults to segment managers and
// retries, charging virtual time for each step. On success the page's
// Referenced (and, for writes, Dirty) flags are set.
//
// No segment lock is held while a fault is delivered: the manager needs
// the locks to migrate frames in. The retry loop absorbs anything that
// changed in between.
func (k *Kernel) Access(s *Segment, page int64, access AccessType) error {
	// The deleted checks happen inside resolve, under the locks its hops
	// take anyway.
	if page < 0 {
		return fmt.Errorf("%w: access page %d", ErrBadRange, page)
	}
	for attempt := 0; attempt <= k.cfg.MaxFaultRetries; attempt++ {
		// resolve returns with r.seg locked and its entry read.
		r, err := resolve(s, page)
		if err != nil {
			return err
		}
		if attempt == 0 {
			// A reference counts once it reaches a live segment at a valid
			// page, and once however many faults it takes.
			k.stats.Accesses.Add(uint64(s.id), 1)
		}
		rs, e := r.seg, r.e
		if e == nil {
			rs.unlock()
			if err := k.deliverFault(Fault{Seg: rs, Page: r.page, Access: access, Kind: FaultMissing}); err != nil {
				return err
			}
			continue
		}
		if access == Write && r.cow {
			// The reference crossed a copy-on-write binding: a private page
			// must materialize in the front segment. The manager allocates
			// it; the kernel performs the copy (§2.1) from the source frames
			// named here, under the source segment's lock.
			src := e.pfn
			rs.unlock()
			if err := k.deliverFault(Fault{Seg: r.cowSeg, Page: r.cowPage, Access: access, Kind: FaultCopyOnWrite}); err != nil {
				return err
			}
			cs := r.cowSeg
			cs.lock()
			ne, ok := cs.pages.get(r.cowPage)
			if !ok {
				cs.unlock()
				continue // manager did not materialize the page; re-fault
			}
			// Bindings never cross page sizes (resolve), so both pages span
			// cs.fpp frames.
			for i := phys.PFN(0); i < phys.PFN(cs.fpp); i++ {
				k.clock.AdvanceOn(uint64(cs.id), k.cost.CopyPage)
				k.mem.Frame(ne.pfn + i).CopyFrom(k.mem.Frame(src + i))
			}
			ne.flags |= FlagDirty
			cs.unlock()
			continue // retry: resolution now finds the private page
		}
		need := FlagRead
		if access == Write {
			need = FlagWrite
		}
		if !e.flags.Has(need) {
			rs.unlock()
			if err := k.deliverFault(Fault{Seg: rs, Page: r.page, Access: access, Kind: FaultProtection}); err != nil {
				return err
			}
			continue
		}
		// Translation lookup: TLB, then hash table, then structure walk.
		key, tl := mapKey{rs.id, r.page}, k.tlbOf(rs)
		if tl.lookup(key) {
			k.stats.TLBHits.Add(uint64(rs.id), 1)
		} else {
			k.stats.TLBMisses.Add(uint64(rs.id), 1)
			k.clock.AdvanceOn(uint64(rs.id), k.cost.TLBFill)
			if !k.table.lookup(key) {
				// Walk the segment and bound-region structures, then prime
				// the hash table. Staging segments are never primed (see
				// cacheFill); the charge is identical either way.
				k.clock.AdvanceOn(uint64(rs.id), 2*k.cost.MappingUpdate)
				if k.cacheFill(rs) {
					k.table.insert(key)
				}
			}
			if k.cacheFill(rs) {
				tl.install(key)
			}
		}
		e.flags |= FlagReferenced
		if access == Write {
			e.flags |= FlagDirty
		}
		rs.unlock()
		return nil
	}
	return pageError(ErrFaultLoop, s, page)
}

// MarkAccessed updates a present page's Referenced (and, for writes, Dirty)
// flags without charging any cost. It is the hook the kernel's own UIO block
// interface uses when it touches cached-file pages on behalf of a process;
// unlike ModifyPageFlags it is not a system call.
func (k *Kernel) MarkAccessed(s *Segment, page int64, write bool) {
	s.lock()
	defer s.unlock()
	e, ok := s.pages.get(page)
	if !ok {
		return
	}
	e.flags |= FlagReferenced
	if write {
		e.flags |= FlagDirty
	}
}

// FaultIn forces the fault path for a missing page exactly as a memory
// reference would, without the translation-lookup bookkeeping. The UIO
// block interface uses it when a file read or write touches a page with no
// frame (§2.1: "a file read to a segment page that does not have an
// associated page frame causes a page fault event to be communicated to the
// manager of the segment, as for a regular page fault").
func (k *Kernel) FaultIn(s *Segment, page int64, access AccessType) error {
	for attempt := 0; attempt <= k.cfg.MaxFaultRetries; attempt++ {
		r, err := resolve(s, page)
		if err != nil {
			return err
		}
		r.seg.unlock()
		if r.e != nil {
			return nil
		}
		if err := k.deliverFault(Fault{Seg: r.seg, Page: r.page, Access: access, Kind: FaultMissing}); err != nil {
			return err
		}
	}
	return pageError(ErrFaultLoop, s, page)
}

// CheckFrameConservation verifies the fundamental invariant of external
// page-cache management: every physical frame is held by exactly one
// segment, and the owner's page map agrees. It returns nil when consistent.
// Tests and the property suite call this after every mutation sequence; the
// system must be quiescent (no in-flight faults or migrations), which is
// why it takes no per-segment locks.
func (k *Kernel) CheckFrameConservation() error {
	k.mu.RLock()
	segs := make(map[SegID]*Segment, len(k.segs))
	for id, s := range k.segs {
		segs[id] = s
	}
	k.mu.RUnlock()
	// Every page entry's frame run [pfn, pfn+fpp) must lie inside memory,
	// and each of its frames must be held by no other page and record this
	// segment as its owner.
	seen := make(map[phys.PFN]SegID)
	for _, s := range segs {
		var werr error
		s.pages.forEach(func(page int64, e *pageEntry) bool {
			if int(e.pfn)+s.fpp > k.mem.NumFrames() {
				werr = fmt.Errorf("%s page %d holds frames [%d,%d), beyond memory's %d", s, page, e.pfn, int(e.pfn)+s.fpp, k.mem.NumFrames())
				return false
			}
			for pfn := e.pfn; pfn < e.pfn+phys.PFN(s.fpp); pfn++ {
				if prev, dup := seen[pfn]; dup {
					werr = fmt.Errorf("frame %d held by both segment %d and %d", pfn, prev, s.id)
					return false
				}
				seen[pfn] = s.id
				if k.frameOwner[pfn] != s.id {
					werr = fmt.Errorf("frame %d in %s but recorded owner is %d", pfn, s, k.frameOwner[pfn])
					return false
				}
			}
			return true
		})
		if werr != nil {
			return werr
		}
	}
	if len(seen) != k.mem.NumFrames() {
		return fmt.Errorf("%d frames accounted for, want %d", len(seen), k.mem.NumFrames())
	}
	// Conversely, every frame's recorded page must hold the frame.
	for pfn, owner := range k.frameOwner {
		s := segs[owner]
		e, ok := s.pages.get(k.framePage[pfn])
		if !ok {
			return fmt.Errorf("frame %d recorded at %s page %d, but page absent", pfn, s, k.framePage[pfn])
		}
		if pfn < int(e.pfn) || pfn >= int(e.pfn)+s.fpp {
			return fmt.Errorf("frame %d recorded at %s page %d, but entry holds other frames", pfn, s, k.framePage[pfn])
		}
	}
	return nil
}
