package kernel

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"epcm/internal/phys"
)

// Page operations. The paper's kernel interface is MigratePages,
// ModifyPageFlags and GetPageAttributes (§2.1); its default manager "batches
// protection changes to amortize fault cost" (§2.3), and this file
// generalizes that: every operation has exactly one body, and the body takes
// a slice of page ranges. The paper-shaped spellings in kernel.go pass one
// range; the Batch spellings pass many. Either way the body takes the
// segment locks once, validates everything, applies all-or-nothing and
// charges one kernel call plus the per-page increments — so n calls of one
// page cost n kernel calls and one call of n pages costs one.
//
// The spelling matters in one respect: with the superpage plane on, only the
// Batch spellings may apply a range whole — MigratePagesBatch as one extent,
// ModifyPageFlagsBatch as one shootdown, each for one SuperpageOp. The
// single-range MigratePages and ModifyPageFlags never do, and charge per page
// whatever the range (TestBatchMigrateExtentFallbacks and
// TestModifyFlagsBatchExtentCharge pin both). With the plane off, which the
// Table 1/3 numbers run with, the spellings charge alike.
//
// Two rules hold for every body in this file.
//
// Cost of a rejected call: the call counter ticks and the trap into the
// kernel (KernelCall, plus ModifyFlags for a flag operation) is charged on
// entry, whether or not the arguments validate; the per-page charges apply
// only when the operation is applied. A batch of no ranges is not a call.
//
// Error precedence: deleted segment, then credentials, then range sanity,
// then — page by page — presence of the source and a free destination;
// collisions between the ranges of one batch come last.

// PageRange is one contiguous run of pages in a page operation. For
// migrations, Pages pages starting at Page in the source land at To in the
// destination; for flag operations only Page and Pages are meaningful.
type PageRange struct {
	Page  int64 // first source page
	To    int64 // first destination page (migrations only)
	Pages int64 // run length
}

// CoalesceRanges groups parallel source/destination page lists into the
// fewest PageRanges: positions extend the current range only while both the
// source and the destination pages stay consecutive. Callers use it to turn
// per-page migrate loops into one batched call.
func CoalesceRanges(src, dst []int64) []PageRange {
	return CoalesceRangesInto(nil, src, dst)
}

// CoalesceRangesInto is CoalesceRanges appending into a caller-owned buffer
// (passed with length zero) so steady-state callers reuse one allocation.
func CoalesceRangesInto(ranges []PageRange, src, dst []int64) []PageRange {
	if len(src) == 0 || len(src) != len(dst) {
		return nil
	}
	if ranges == nil {
		ranges = make([]PageRange, 0, 4)
	}
	for i := range src {
		ranges = AppendRange(ranges, src[i], dst[i])
	}
	return ranges
}

// AppendRange adds the move of page src to page dst to ranges: it extends
// the last range when both src and dst follow on from it, else appends a
// range of one. Flag operations pass the page as both sides.
func AppendRange(ranges []PageRange, src, dst int64) []PageRange {
	if n := len(ranges); n > 0 && ranges[n-1].Page+ranges[n-1].Pages == src && ranges[n-1].To+ranges[n-1].Pages == dst {
		ranges[n-1].Pages++
		return ranges
	}
	return append(ranges, PageRange{Page: src, To: dst, Pages: 1})
}

// checkRange validates that [page, page+n) is a sane range.
func checkRange(s *Segment, page, n int64) error {
	if n <= 0 || page < 0 {
		return fmt.Errorf("%w: [%d,+%d) in %s", ErrBadRange, page, n, s)
	}
	return nil
}

// validateMigrate runs the checks every migration kind shares, in the
// file's precedence order. Caller holds both segment locks.
func validateMigrate(cred Cred, src, dst *Segment, ranges []PageRange) error {
	if src.deleted || dst.deleted {
		return ErrNoSuchSegment
	}
	if (src.restricted || dst.restricted) && !cred.Privileged {
		return fmt.Errorf("%w: migrate %s -> %s by %q", ErrNotPrivileged, src, dst, cred.Name)
	}
	for _, r := range ranges {
		if err := checkRange(src, r.Page, r.Pages); err != nil {
			return err
		}
		if err := checkRange(dst, r.To, r.Pages); err != nil {
			return err
		}
	}
	return nil
}

// chargeMigrated is the exit leg of an applied migration: pages entries
// moved, perPage of them at the base-page rate, plus one SuperpageOp for
// each range applied whole.
func (k *Kernel) chargeMigrated(dst *Segment, pages, perPage, whole int64) {
	k.stats.MigratedPages.Add(uint64(dst.id), pages)
	k.clock.AdvanceOn(uint64(dst.id), time.Duration(perPage)*(k.cost.MigratePage+k.cost.MappingUpdate)+
		time.Duration(whole)*k.cost.SuperpageOp)
}

// batchScratch is checkDisjoint's reusable state for large unsorted batches
// (hundreds of single-page ranges when granted frames are scattered). The
// bitsets are all-zero between uses, whatever their capacity: a use clears
// exactly the words it touched, so a check costs what its own batch spans,
// never what an earlier, larger batch left behind.
type batchScratch struct {
	src, dst []uint64    // one bit per page, offset from the side's lowest page
	rs       []PageRange // a copy of the batch, for sorting
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// batchDensePagesPerRange bounds the bitset arm: a side whose pages span at
// most this many pages per range is marked in a bitset (clearing 64 words a
// range costs less than sorting the ranges); a sparser side is sorted.
const batchDensePagesPerRange = 4096

// checkDisjoint rejects a batch in which two ranges name one source page or
// land on one destination slot — the collisions the per-page presence
// checks cannot see — naming the page a page-by-page walk of the batch
// (each range's source pages, then its destination pages) would find
// already taken. Batches whose ranges ascend without overlap on both sides — the
// shape every coalesced caller produces — prove themselves collision-free
// in one pass, and small unsorted batches (the magazine grant's
// run-per-range shape) are compared pairwise. A large unsorted batch marks
// each side's pages in a bitset spanning that side's lowest to highest page
// when both spans are dense enough, and otherwise sorts each side's
// intervals to prove them disjoint.
func checkDisjoint(src, dst *Segment, ranges []PageRange) error {
	sorted := true
	for i := 1; i < len(ranges) && sorted; i++ {
		a, b := ranges[i-1], ranges[i]
		sorted = b.Page >= a.Page+a.Pages && b.To >= a.To+a.Pages
	}
	if sorted {
		return nil
	}
	if len(ranges) <= 16 { // past ~16 ranges the quadratic walk costs more than the bitsets
		return firstCollision(src, dst, ranges)
	}
	srcLo, srcHi := ranges[0].Page, ranges[0].Page
	dstLo, dstHi := ranges[0].To, ranges[0].To
	for _, r := range ranges {
		srcLo, srcHi = min(srcLo, r.Page), max(srcHi, r.Page+r.Pages)
		dstLo, dstHi = min(dstLo, r.To), max(dstHi, r.To+r.Pages)
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	if dense := int64(len(ranges)) * batchDensePagesPerRange; srcHi-srcLo > dense || dstHi-dstLo > dense {
		sc.rs = append(sc.rs[:0], ranges...)
		if disjointSorted(sc.rs, func(r PageRange) int64 { return r.Page }) &&
			disjointSorted(sc.rs, func(r PageRange) int64 { return r.To }) {
			return nil
		}
		return firstCollision(src, dst, ranges)
	}
	srcSet, dstSet := pageBitset(&sc.src, srcHi-srcLo), pageBitset(&sc.dst, dstHi-dstLo)
	defer clear(srcSet)
	defer clear(dstSet)
	for _, r := range ranges {
		if p := markPages(srcSet, r.Page-srcLo, r.Pages); p >= 0 {
			return pageError(ErrBadRange, src, srcLo+p)
		}
		if p := markPages(dstSet, r.To-dstLo, r.Pages); p >= 0 {
			return pageError(ErrBadRange, dst, dstLo+p)
		}
	}
	return nil
}

// firstCollision is the exact pairwise check, quadratic in the batch: for
// each range in turn, the lowest source page an earlier range also names,
// else the lowest destination page an earlier range also lands on.
func firstCollision(src, dst *Segment, ranges []PageRange) error {
	for i, a := range ranges {
		aSrcEnd, aDstEnd := a.Page+a.Pages, a.To+a.Pages
		sp, dp := int64(math.MaxInt64), int64(math.MaxInt64)
		for _, b := range ranges[:i] {
			if a.Page < b.Page+b.Pages && b.Page < aSrcEnd {
				sp = min(sp, max(a.Page, b.Page))
			}
			if a.To < b.To+b.Pages && b.To < aDstEnd {
				dp = min(dp, max(a.To, b.To))
			}
		}
		if sp != math.MaxInt64 {
			return pageError(ErrBadRange, src, sp)
		}
		if dp != math.MaxInt64 {
			return pageError(ErrBadRange, dst, dp)
		}
	}
	return nil
}

// pageBitset returns a zeroed bitset of n bits backed by *buf, growing it
// when short.
func pageBitset(buf *[]uint64, n int64) []uint64 {
	words := int((n + 63) / 64)
	if cap(*buf) < words {
		*buf = make([]uint64, words)
	}
	return (*buf)[:words]
}

// markPages sets bits [lo, lo+n) and returns the lowest of them that was
// already set, or -1.
func markPages(set []uint64, lo, n int64) int64 {
	for hi := lo + n; lo < hi; {
		w, b := lo>>6, uint(lo&63)
		run := min(hi-lo, 64-int64(b))
		mask := ^uint64(0) >> (64 - uint(run)) << b
		if dup := set[w] & mask; dup != 0 {
			return w<<6 + int64(bits.TrailingZeros64(dup))
		}
		set[w] |= mask
		lo += run
	}
	return -1
}

// disjointSorted sorts rs by start and reports whether no range reaches
// into the next.
func disjointSorted(rs []PageRange, start func(PageRange) int64) bool {
	slices.SortFunc(rs, func(a, b PageRange) int { return cmp.Compare(start(a), start(b)) })
	for i := 1; i < len(rs); i++ {
		if start(rs[i]) < start(rs[i-1])+rs[i-1].Pages {
			return false
		}
	}
	return true
}

// MigratePagesBatch moves every range of page frames from src to dst,
// setting and clearing flags on each migrated page, as one kernel call.
// With superpages on, a range that is a whole aligned extent backed by a
// contiguous, naturally aligned frame run is applied as one extent.
func (k *Kernel) MigratePagesBatch(cred Cred, src, dst *Segment, ranges []PageRange, set, clear PageFlags) error {
	if len(ranges) == 0 {
		return nil
	}
	return k.migrate(cred, src, dst, ranges, set, clear, k.Superpages())
}

// migrate is the body of MigratePages and MigratePagesBatch. extents says
// whether qualifying ranges may be applied as superpage extents; off, the
// charge is exactly KernelCall + pages×(MigratePage+MappingUpdate).
func (k *Kernel) migrate(cred Cred, src, dst *Segment, ranges []PageRange, set, clear PageFlags, extents bool) error {
	k.stats.MigrateCalls.Add(uint64(dst.id), 1)
	k.clock.AdvanceOn(uint64(dst.id), k.cost.KernelCall)
	lockPair(src, dst)
	defer unlockPair(src, dst)
	if err := validateMigrate(cred, src, dst, ranges); err != nil {
		return err
	}
	total := int64(0)
	for _, r := range ranges {
		// The first absent source page and the first busy destination slot
		// before it: at one offset the source is reported first.
		absent := src.pages.firstAbsent(r.Page, r.Pages)
		if busy := dst.pages.firstPresent(r.To, absent); busy < absent {
			return pageError(ErrPageBusy, dst, r.To+busy)
		}
		if absent < r.Pages {
			return pageError(ErrPageNotPresent, src, r.Page+absent)
		}
		total += r.Pages
	}
	if err := checkDisjoint(src, dst, ranges); err != nil {
		return err
	}
	perPage, whole := int64(0), int64(0)
	for _, r := range ranges {
		o := extentOrderFor(src, r, extents)
		dst.pages.reserve(r.To, r.To+r.Pages)
		k.moveRun(src, dst, r, uint8(o), set, clear)
		if o > 0 {
			whole++
		} else {
			perPage += r.Pages
		}
	}
	k.chargeMigrated(dst, total, perPage, whole)
	return nil
}

// extentOrderFor reports the extent order a validated migration range
// qualifies for, or 0: the range must be a whole power-of-two extent of
// 2..2^MaxExtentOrder pages landing on an aligned destination base, and the
// source frames must be physically contiguous ascending from a naturally
// aligned PFN (what PromoteExtent would demand after the fact). Caller
// holds both segment locks and has validated presence.
func extentOrderFor(src *Segment, r PageRange, super bool) int {
	if !super || r.Pages < 2 || r.Pages > 1<<MaxExtentOrder || r.Pages&(r.Pages-1) != 0 {
		return 0
	}
	if r.To&(r.Pages-1) != 0 {
		return 0
	}
	if ord, ok := src.extents[r.Page]; ok && int64(1)<<uint(ord) == r.Pages {
		// The range is exactly a live source extent: the extent invariant
		// already guarantees a contiguous, naturally aligned frame run, so
		// the per-page walk below proves nothing new. This is the common
		// extent-fill shape — frames granted as an extent into a staging
		// segment, migrating onward whole.
		return int(ord)
	}
	if src.identity {
		// Boot parks every frame at its own PFN, so a contiguous page range
		// is a contiguous frame run by construction; only the natural
		// alignment of the base remains to check. This is the grant shape —
		// pool frames migrating boot→free as whole runs.
		if r.Page&(r.Pages-1) != 0 {
			return 0
		}
		return bits.TrailingZeros64(uint64(r.Pages))
	}
	var prev phys.PFN
	for i := int64(0); i < r.Pages; i++ {
		e, _ := src.pages.get(r.Page + i)
		pfn := e.pfn
		if i == 0 {
			if int64(pfn)&(r.Pages-1) != 0 {
				return 0
			}
		} else if pfn != prev+1 {
			return 0
		}
		prev = pfn
	}
	return bits.TrailingZeros64(uint64(r.Pages))
}

// moveRun is migrate's one range body: it applies one validated range whose
// destination slots are reserved — as one extent of the given order when
// order is non-zero, page by page otherwise. The entries change stores as a
// run (pageStore.moveRun, which also applies the flags), frame ownership
// follows in a second pass, and the caches then see the operations a
// page-at-a-time move issues, in its order per structure. The mapping table
// gets, for i ascending: the removal of any source extent's span entry ahead
// of the first of its pages the range covers, remove(src i) and — unless the
// range lands as an extent — insert(dst i), key by key: page numbers are
// table keys, so which insert displaces whom is model state. The TLB gets
// the same span and source invalidates, then the destination installs as one
// installRun: an install decides by its own key and the cursor alone,
// neither of which an invalidate of another key touches, and span ways are
// not base entries, so taking the invalidates first leaves the same entries
// and cursor. An extent then records one span entry instead of per-page
// fills.
func (k *Kernel) moveRun(src, dst *Segment, r PageRange, order uint8, set, clear PageFlags) {
	// A range that is exactly a live source extent — staged frames moving
	// onward whole — drops it up front, where the first page's covering probe
	// would have; extents never overlap, so the other pages' probes would
	// find nothing.
	probe := len(src.extents) != 0
	if probe {
		if ord, ok := src.extents[r.Page]; ok && int64(1)<<ord == r.Pages {
			k.dropExtentLocked(src, r.Page, ord)
			probe = false
		}
	}
	moved := src.pages.moveRun(&dst.pages, r.Page, r.To, r.Pages, set, clear)
	for i := range moved {
		k.frameOwner[moved[i].pfn] = dst.id
		k.framePage[moved[i].pfn] = r.To + int64(i)
	}
	fill := order == 0 && k.cacheFill(dst)
	if src.named || fill || probe {
		for i := int64(0); i < r.Pages; i++ {
			if probe {
				k.demoteCoveringLocked(src, r.Page+i)
			}
			if src.named {
				srcKey := mapKey{src.id, r.Page + i}
				k.table.remove(srcKey)
				k.tlbOf(src).invalidate(srcKey)
			}
			if fill {
				k.table.insert(mapKey{dst.id, r.To + i})
			}
		}
	}
	if fill {
		// On a fault-driven migrate the kernel loads the translation for
		// the faulting address before the application resumes, so the
		// retried access does not miss again.
		k.tlbOf(dst).installRun(mapKey{dst.id, r.To}, r.Pages)
	}
	if order != 0 {
		// The destination cannot hold an overlapping extent: its slots were
		// all absent, and a live extent implies its pages present.
		k.recordExtentLocked(dst, r.To, order)
		k.stats.ExtentPromotions.Add(1)
		k.stats.SuperpageOps.Add(1)
	}
}

// ModifyPageFlagsBatch modifies page flags over every range as one kernel
// call. With superpages on, a range that exactly matches a promoted extent
// is applied as one superpage shootdown.
func (k *Kernel) ModifyPageFlagsBatch(cred Cred, s *Segment, ranges []PageRange, set, clear PageFlags) error {
	if len(ranges) == 0 {
		return nil
	}
	return k.modifyFlags(cred, s, ranges, set, clear, k.Superpages())
}

// modifyFlags is the body of ModifyPageFlags and ModifyPageFlagsBatch: one
// KernelCall + ModifyFlags per call plus one MappingUpdate per page. extents
// says whether a range matching a promoted extent may be applied whole.
func (k *Kernel) modifyFlags(cred Cred, s *Segment, ranges []PageRange, set, clear PageFlags, extents bool) error {
	k.stats.ModifyCalls.Add(uint64(s.id), 1)
	k.clock.AdvanceOn(uint64(s.id), k.cost.KernelCall+k.cost.ModifyFlags)
	s.lock()
	defer s.unlock()
	if s.deleted {
		return ErrNoSuchSegment
	}
	if s.restricted && !cred.Privileged {
		return fmt.Errorf("%w: modify flags on %s by %q", ErrNotPrivileged, s, cred.Name)
	}
	for _, r := range ranges {
		if err := checkRange(s, r.Page, r.Pages); err != nil {
			return err
		}
	}
	for _, r := range ranges {
		for i := int64(0); i < r.Pages; i++ {
			if !s.pages.has(r.Page + i) {
				return pageError(ErrPageNotPresent, s, r.Page+i)
			}
		}
	}
	// An extent shootdown still changes the flags per base page (the page
	// store stays authoritative, and span entries never carry flags), but a
	// single span invalidate and one SuperpageOp replace 2^order per-page
	// TLB invalidates and MappingUpdates. The extent itself survives — its
	// pages are all still present.
	var charge time.Duration
	for _, r := range ranges {
		ord, whole := s.extents[r.Page]
		whole = whole && extents && int64(1)<<uint(ord) == r.Pages
		for i := int64(0); i < r.Pages; i++ {
			e, _ := s.pages.get(r.Page + i)
			e.flags = e.flags.Apply(set, clear)
			if !whole {
				// Cached translations may now be stale (e.g. protection
				// tightened).
				k.tlbOf(s).invalidate(mapKey{s.id, r.Page + i})
			}
		}
		if whole {
			k.tlbOf(s).invalidateSpan(mapKey{s.id, r.Page}, ord)
			k.stats.SuperpageOps.Add(1)
			charge += k.cost.SuperpageOp
		} else {
			charge += time.Duration(r.Pages) * k.cost.MappingUpdate
		}
	}
	k.clock.AdvanceOn(uint64(s.id), charge)
	return nil
}

// GetPageAttributesBatch reads the attributes of an arbitrary set of pages
// of one segment — scattered, unlike GetPageAttributes' contiguous range —
// as a single kernel call. It is the batched reference-bit sampling hook
// replacement policies scan with. Results are appended to dst (pass dst[:0]
// to reuse storage); absent pages report Present=false.
func (k *Kernel) GetPageAttributesBatch(s *Segment, pages []int64, dst []PageAttribute) ([]PageAttribute, error) {
	if len(pages) == 0 {
		return dst, nil
	}
	return k.getAttributes(s, pages, 0, int64(len(pages)), dst)
}

// getAttributes is the body of the three GetPageAttribute spellings: it
// reads n pages of s — pages[i], or first+i when pages is nil — appending
// to dst (allocated here when nil), for one KernelCall plus MappingUpdate/2
// per page. Missing pages are reported with Present false rather than as
// errors, so managers can scan sparse segments.
func (k *Kernel) getAttributes(s *Segment, pages []int64, first, n int64, dst []PageAttribute) ([]PageAttribute, error) {
	k.stats.GetAttrCalls.Add(uint64(s.id), 1)
	k.clock.AdvanceOn(uint64(s.id), k.cost.KernelCall)
	s.lock()
	defer s.unlock()
	if s.deleted {
		return dst, ErrNoSuchSegment
	}
	if err := checkRange(s, first, n); err != nil {
		return dst, err
	}
	for _, p := range pages {
		if err := checkRange(s, p, 1); err != nil {
			return dst, err
		}
	}
	if dst == nil {
		dst = make([]PageAttribute, 0, n)
	}
	for i := int64(0); i < n; i++ {
		p := first + i
		if pages != nil {
			p = pages[i]
		}
		a := PageAttribute{Page: p, PFN: phys.NoFrame}
		if e, ok := s.pages.get(p); ok {
			f := k.mem.Frame(e.pfn)
			a.Present = true
			a.Flags = e.flags
			a.PFN = f.PFN()
			a.PhysAddr = f.PhysAddr()
			a.Color = f.Color()
			a.Node = f.Node()
		}
		dst = append(dst, a)
	}
	k.clock.AdvanceOn(uint64(s.id), time.Duration(n)*(k.cost.MappingUpdate/2))
	return dst, nil
}
