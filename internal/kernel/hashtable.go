package kernel

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The V++ kernel does not describe address spaces with per-process page
// tables. Per §3.2: "V++ augments the segment and bound region data
// structures with a global 64K entry direct mapped hash table with a 32
// entry overflow area." This file implements that structure.
//
// The hash table is a cache over the authoritative segment page maps: a
// lookup miss is not an error, it just forces the (more expensive) walk of
// the segment and bound-region structures. Inserting into an occupied slot
// displaces the occupant to the overflow area; when the overflow area is
// full the displaced mapping is simply dropped.
//
// One table serves both schedulers. A serial kernel's table is touched by
// one goroutine at a time and takes no lock. SetScheduler shares it when it
// installs the concurrent scheduler (share), as it shares the kernel's clock
// and activity counters (sim.Striped.Share): from then on an operation
// locks the stripe of its key's slot — tableStripes cache-line-padded
// mutexes over contiguous slot ranges — and takes the overflow area's mutex
// too only while it reads or writes the area: a probe or remove of a key
// whose slot has spilled keys (its spilled bit), an insert that displaces its
// slot's occupant. removeSegment takes every lock. Stripe before overflow;
// both are leaves, taken inside the segment locks and never around them.

const (
	hashTableSlots  = 64 * 1024
	hashOverflow    = 32
	tableStripeBits = 8
	tableStripes    = 1 << tableStripeBits
)

type mapKey struct {
	seg  SegID
	page int64
}

// hashKey is the Fibonacci hash the mapping table and the TLB's chain index
// both take their top bits of: the multiplier is a 64-bit odd constant, and
// segment and page both participate so consecutive pages of one segment
// spread across the table.
func hashKey(k mapKey) uint64 {
	return (uint64(k.seg)<<40 ^ uint64(k.page)) * 0x9e3779b97f4a7c15
}

// hashShift is the right shift that leaves the top log2(n) bits of a 64-bit
// hash: an index into a table of n (a power of two) slots.
func hashShift(n int) uint { return uint(64 - bits.TrailingZeros(uint(n))) }

// hashSlot is one cached mapping packed into one word: the key alone.
// Nothing on the fault path reads a page entry out of this table — a hit
// only spares the segment walk; flags and frames always come from the
// segment's page store — so the slot carries no pointer: 8 bytes, and the
// 512 KB table is memory the garbage collector never scans.
//
//	bit  63     valid
//	bit  62     spilled: a valid overflow entry is homed at this slot
//	bits 59–61  span order, 0 for a base-page entry
//	bits 40–58  segment
//	bits 0–39   page (a span entry's extent base)
//
// find, insert and remove each compare one masked word. The spilled bit
// belongs to the direct-mapped slot, not to the key it holds: it survives
// the slot being overwritten or invalidated. Overflow entries leave it
// clear and record their home slot in ovHome instead.
type hashSlot uint64

const (
	slotValid      hashSlot = 1 << 63
	slotSpilled    hashSlot = 1 << 62
	slotOrderShift          = 59
	slotPageBits            = 40
	slotSegBits             = slotOrderShift - slotPageBits
	slotSegField   hashSlot = (1<<slotSegBits - 1) << slotPageBits
)

// Every extent order fits the slot's three order bits.
const _ = uint(7 - MaxExtentOrder)

// packKey packs the word of k's entry at the given span order (0 for a base
// page). ok is false for a key outside the packed range — a negative page,
// a page at or beyond 2^40, a segment at or beyond 2^19. Such a key is
// uncacheable: lookup misses it (the walk serves it, charged as for any
// miss), and insert and remove leave the table alone.
func packKey(k mapKey, order int) (w hashSlot, ok bool) {
	if uint64(k.page)>>slotPageBits|uint64(k.seg)>>slotSegBits != 0 {
		return 0, false
	}
	return slotValid | hashSlot(order)<<slotOrderShift | hashSlot(k.seg)<<slotPageBits | hashSlot(k.page), true
}

// holds reports whether the slot holds the packed key w.
func (s *hashSlot) holds(w hashSlot) bool { return *s&^slotSpilled == w }

func (s hashSlot) valid() bool   { return s&slotValid != 0 }
func (s hashSlot) spilled() bool { return s&slotSpilled != 0 }

type mappingTable struct {
	slots []hashSlot
	// overflow stays an embedded fixed array (not a slice), which keeps its
	// scans bounds-check-free and local to the struct. ovLen is the logical
	// area size — the paper's 32 in production, smaller in fuzz tables.
	// ovHome[j] is the direct-mapped slot overflow[j]'s key indexes, valid
	// while the entry is.
	overflow [hashOverflow]hashSlot
	ovHome   [hashOverflow]int32
	ovLen    int
	// ovLive counts the valid overflow entries; insert looks for a free
	// one only while ovLive < ovLen. Whether a given key can be in the area
	// is its home slot's spilled bit: find and remove scan the area only
	// for keys whose home slot has spilled, so the migrate path's
	// remove+insert pair touches two slots and nothing else even while
	// other slots' displaced keys fill the area.
	ovLive int
	shift  uint // 64 - log2(len(slots)); index takes the top bits
	// spanSeen records (as a bitmask over orders, monotonically) that a
	// superpage span entry was ever inserted. Zero — always, with
	// superpages off — keeps lookup exactly the paper's two-probe shape,
	// so golden hit/miss counts cannot move.
	spanSeen atomic.Uint32
	// spills counts displacements into the overflow area, drops displaced
	// mappings lost to a full one; both change under the overflow lock.
	// Hits and misses are the kernel's (kernelStats.HashMisses, Access).
	spills, drops int64
	// stripes and ov are a shared table's locks, nil on a serial table
	// (share makes them): one per contiguous range of slots, a slot index
	// shifted right by stripeShift naming its stripe, and the overflow
	// area's. Each is alone on its cache line, and the stripes are one
	// 16 KB object, a size the heap allocates without rounding up.
	stripes     *[tableStripes]paddedMutex
	ov          *paddedMutex
	stripeShift uint
}

type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

func newMappingTable() *mappingTable {
	return newMappingTableSized(hashTableSlots, hashOverflow)
}

// newMappingTableSized builds a table with the given direct-mapped slot
// count (a power of two) and overflow area size (at most hashOverflow).
// Production uses the paper's 64K/32 via newMappingTable; fuzz tests shrink
// both so collisions and overflow pressure happen in a few operations.
func newMappingTableSized(slots, overflow int) *mappingTable {
	if slots <= 0 || slots&(slots-1) != 0 {
		panic("kernel: mapping table slot count must be a positive power of two")
	}
	if overflow < 0 || overflow > hashOverflow {
		panic("kernel: mapping table overflow size out of range")
	}
	return &mappingTable{
		slots: make([]hashSlot, slots),
		ovLen: overflow,
		shift: hashShift(slots),
	}
}

// share makes the table safe for concurrent callers, for good: every
// operation from here on takes its locks.
func (t *mappingTable) share() {
	if t.stripes == nil {
		t.stripes, t.ov = new([tableStripes]paddedMutex), new(paddedMutex)
		t.stripeShift = uint(max(0, bits.TrailingZeros(uint(len(t.slots)))-tableStripeBits))
	}
}

// lockSlot and unlockSlot take and release slot i's stripe lock, and
// lockOverflow and unlockOverflow the overflow area's; on a serial table
// all four are one nil check, and inline.
func (t *mappingTable) lockSlot(i int) {
	if t.stripes != nil {
		t.lockStripe(i)
	}
}

func (t *mappingTable) unlockSlot(i int) {
	if t.stripes != nil {
		t.unlockStripe(i)
	}
}

func (t *mappingTable) lockOverflow() {
	if t.ov != nil {
		t.ov.Lock()
	}
}

func (t *mappingTable) unlockOverflow() {
	if t.ov != nil {
		t.unlockOv()
	}
}

// The sync.Mutex calls are out of line so the wrappers above inline (as
// Segment.unlockMu is).
//
//go:noinline
func (t *mappingTable) lockStripe(i int) { t.stripes[i>>t.stripeShift].Lock() }

//go:noinline
func (t *mappingTable) unlockStripe(i int) { t.stripes[i>>t.stripeShift].Unlock() }

//go:noinline
func (t *mappingTable) unlockOv() { t.ov.Unlock() }

// index computes the direct-mapped slot for a key; a span entry's key is
// its span-tagged one (spanMapKey).
func (t *mappingTable) index(k mapKey) int {
	return int(hashKey(k) >> t.shift) // top bits: len(slots) slots
}

// find probes the slot and the overflow area for exactly k's entry at the
// given span order; lookup composes it with the span probes.
func (t *mappingTable) find(k mapKey, order int) bool {
	w, ok := packKey(k, order)
	if !ok {
		return false
	}
	i := t.index(spanMapKey(k, order))
	s := &t.slots[i]
	t.lockSlot(i)
	hit := s.holds(w)
	if !hit && s.spilled() {
		t.lockOverflow()
		ov := t.overflow[:t.ovLen]
		for j := range ov {
			if ov[j].holds(w) {
				hit = true
				break
			}
		}
		t.unlockOverflow()
	}
	t.unlockSlot(i)
	return hit
}

// lookup reports whether a mapping for key is cached. After an exact miss
// it probes the span keys of any live extent orders, so one cached span
// entry answers for every page of its extent.
func (t *mappingTable) lookup(k mapKey) bool {
	if t.find(k, 0) {
		return true
	}
	if m := t.spanSeen.Load(); m != 0 {
		for o := 1; o <= MaxExtentOrder; o++ {
			if m&(1<<uint(o)) == 0 {
				continue
			}
			if t.find(mapKey{k.seg, extentBase(k.page, o)}, o) {
				return true
			}
		}
	}
	return false
}

// insertSpan caches one key covering a whole extent under its span key;
// lookup's masked-base probes find it for every covered page. The order bit
// is published before the entry, so a lookup that could find the entry
// also probes for it.
func (t *mappingTable) insertSpan(k mapKey, order uint8) {
	if _, ok := packKey(k, int(order)); !ok {
		return
	}
	for m := t.spanSeen.Load(); m&(1<<order) == 0 && !t.spanSeen.CompareAndSwap(m, m|1<<order); m = t.spanSeen.Load() {
	}
	t.put(k, int(order))
}

// removeSpan withdraws a span entry (extent demoted).
func (t *mappingTable) removeSpan(k mapKey, order uint8) {
	t.forget(k, int(order))
}

// insert caches a base-page mapping.
func (t *mappingTable) insert(k mapKey) { t.put(k, 0) }

// remove forgets a base-page mapping (page unmapped, migrated away, or
// flags changed such that cached translations must not be used).
func (t *mappingTable) remove(k mapKey) { t.forget(k, 0) }

// put caches k's entry at the given span order, displacing any colliding
// occupant to the overflow area (and dropping the displaced mapping if the
// overflow area is full).
//
// The overflow area is touched only on displacement — the common case
// (empty or same-key slot) stays O(1), which matters because every
// MigratePages runs through here. A displacement first purges copies of
// both keys: the inserted key (which may have been displaced there
// earlier) and the displaced occupant (which must not end up in the area
// twice). Both keys are homed at this slot, so the purge runs only when it
// has spilled. The occupant then takes the first free entry; the search
// runs only while the area has one. A purge frees an entry, so the
// occupant then spills: put sets the spilled bit and never clears it. A
// same-key overwrite can leave a copy of k in the overflow area shadowed
// by its slot; forget sweeps both areas and the copy is purged the next
// time the slot is displaced, so at most one overflow copy per key ever
// exists.
func (t *mappingTable) put(k mapKey, order int) {
	w, ok := packKey(k, order)
	if !ok {
		return
	}
	i := t.index(spanMapKey(k, order))
	s := &t.slots[i]
	t.lockSlot(i)
	if s.valid() && !s.holds(w) {
		t.lockOverflow()
		displaced := *s &^ slotSpilled
		ov := t.overflow[:t.ovLen]
		if s.spilled() {
			for j := range ov {
				if o := &ov[j]; o.holds(w) || o.holds(displaced) {
					*o = 0
					t.ovLive--
				}
			}
		}
		if t.ovLive < t.ovLen {
			free := 0
			for ov[free].valid() {
				free++
			}
			ov[free], t.ovHome[free] = displaced, int32(i)
			*s |= slotSpilled
			t.ovLive++
			t.spills++
		} else {
			t.drops++ // overflow full: the displaced mapping is forgotten
		}
		t.unlockOverflow()
	}
	*s = w | *s&slotSpilled
	t.unlockSlot(i)
}

// forget drops k's entry at the given span order from its slot and from
// the overflow area, clearing the slot's spilled bit once no valid overflow
// entry is homed there.
func (t *mappingTable) forget(k mapKey, order int) {
	w, ok := packKey(k, order)
	if !ok {
		return
	}
	i := t.index(spanMapKey(k, order))
	s := &t.slots[i]
	t.lockSlot(i)
	if s.holds(w) {
		*s &= slotSpilled
	}
	if s.spilled() {
		t.lockOverflow()
		homed := false
		ov := t.overflow[:t.ovLen]
		for j := range ov {
			if ov[j].holds(w) {
				ov[j] = 0
				t.ovLive--
			} else if ov[j].valid() && t.ovHome[j] == int32(i) {
				homed = true
			}
		}
		if !homed {
			*s &^= slotSpilled
		}
		t.unlockOverflow()
	}
	t.unlockSlot(i)
}

// removeSegment drops every cached mapping of one segment (segment delete):
// each slot and overflow entry whose segment field is seg.
func (t *mappingTable) removeSegment(seg SegID) {
	if uint64(seg)>>slotSegBits != 0 {
		return // uncacheable: nothing of it is cached
	}
	if t.stripes != nil {
		for i := range t.stripes {
			t.stripes[i].Lock()
		}
		t.ov.Lock()
		defer func() {
			t.ov.Unlock()
			for i := range t.stripes {
				t.stripes[i].Unlock()
			}
		}()
	}
	const field = slotValid | slotSegField
	tag := slotValid | hashSlot(seg)<<slotPageBits
	for i := range t.slots {
		if t.slots[i]&field == tag {
			t.slots[i] &= slotSpilled
		}
	}
	ov := t.overflow[:t.ovLen]
	for j := range ov {
		if ov[j]&field == tag {
			ov[j] = 0
			t.slots[t.ovHome[j]] &^= slotSpilled
			t.ovLive--
		}
	}
	for j := range ov {
		if ov[j].valid() {
			t.slots[t.ovHome[j]] |= slotSpilled
		}
	}
}

// stats reads the counters; resetStats zeroes them. Kernel.Stats and
// Kernel.ResetStats go through this pair exclusively so a counter added here
// is automatically reported and cleared together.
func (t *mappingTable) stats() (spills, drops int64) {
	t.lockOverflow()
	defer t.unlockOverflow()
	return t.spills, t.drops
}

func (t *mappingTable) resetStats() {
	t.lockOverflow()
	t.spills, t.drops = 0, 0
	t.unlockOverflow()
}

// clone copies the table, counters included, as a serial table
// (Kernel.Image); restore makes t a copy of one clone returned, in place,
// keeping t's locks. Both need a quiescent kernel.
func (t *mappingTable) clone() *mappingTable {
	c := newMappingTableSized(len(t.slots), t.ovLen)
	c.restore(t)
	return c
}

func (t *mappingTable) restore(f *mappingTable) {
	copy(t.slots, f.slots)
	t.overflow, t.ovHome, t.ovLive = f.overflow, f.ovHome, f.ovLive
	t.spanSeen.Store(f.spanSeen.Load())
	t.spills, t.drops = f.spills, f.drops
}
