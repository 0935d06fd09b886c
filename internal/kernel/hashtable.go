package kernel

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

const (
	hashTableSlots = 64 * 1024
	hashOverflow   = 32
)

type mapKey struct {
	seg  SegID
	page int64
}

// hashSlot is one cached mapping: the key alone. Nothing on the fault path
// reads a page entry out of this table — a hit only spares the segment walk;
// flags and frames always come from the segment's page store — so the slot
// carries no pointer: 16 bytes, and the 1 MB table is memory the garbage
// collector never scans.
//
// homed belongs to the direct-mapped slot, not to the key it holds: it
// counts the valid overflow entries whose index is this slot. It sits in
// what was padding, and it survives the slot being overwritten or
// invalidated. Overflow entries leave it zero.
type hashSlot struct {
	page  int64
	seg   SegID
	valid bool
	homed uint8
}

func (s *hashSlot) holds(k mapKey) bool {
	return s.valid && s.page == k.page && s.seg == k.seg
}

// mapper is the mapping-hash-table surface the kernel uses; implemented by
// the paper's single mappingTable (serial) and the lock-free casTable
// (concurrent). The span methods cache one entry covering a whole superpage
// extent (superpage.go); the tables are caches, so a missing span only
// costs the walk. Both tables keep keys only: lookup reports presence.
type mapper interface {
	lookup(k mapKey) bool
	insert(k mapKey)
	remove(k mapKey)
	removeSegment(seg SegID)
	insertSpan(k mapKey, order uint8)
	removeSpan(k mapKey, order uint8)
	stats() (hits, misses, spills, drops int64)
	resetStats()
}

type mappingTable struct {
	slots []hashSlot
	// overflow stays an embedded fixed array (not a slice), which keeps its
	// scans bounds-check-free and local to the struct. ovLen is the logical
	// area size — the paper's 32 in production, smaller in fuzz tables.
	overflow [hashOverflow]hashSlot
	ovLen    int
	// ovLive counts the valid overflow entries; insert looks for a free
	// one only while ovLive < ovLen. Whether a given key can be in the area
	// is its home slot's homed count: find and remove scan the area only
	// for keys whose home slot has spilled, so the migrate path's
	// remove+insert pair touches two slots and nothing else even while
	// other slots' displaced keys fill the area.
	ovLive int
	shift  uint // 64 - log2(len(slots)); index takes the top bits
	// spanSeen records (as a bitmask over orders, monotonically) that a
	// superpage span entry was ever inserted. Zero — always, with
	// superpages off — keeps lookup exactly the paper's two-probe shape,
	// so golden hit/miss counts cannot move.
	spanSeen uint8
	// statistics
	hits, misses, spills, drops int64
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

// index computes the direct-mapped slot for a key. The multiplier is a
// 64-bit odd constant (Fibonacci hashing); segment and page both participate
// so consecutive pages of one segment spread across the table.
func (t *mappingTable) index(k mapKey) int {
	h := uint64(k.seg)<<40 ^ uint64(k.page)
	h *= 0x9e3779b97f4a7c15
	return int(h >> t.shift) // top bits: len(slots) slots
}

// find probes slot and overflow for exactly key k without touching the
// hit/miss counters; lookup composes it so a span probe does not
// double-count.
func (t *mappingTable) find(k mapKey) bool {
	s := &t.slots[t.index(k)]
	if s.holds(k) {
		return true
	}
	if s.homed == 0 {
		return false
	}
	ov := t.overflow[:t.ovLen]
	for i := range ov {
		if ov[i].holds(k) {
			return true
		}
	}
	return false
}

// lookup reports whether a mapping for key is cached. After an exact miss
// it probes the span keys of any live extent orders, so one cached span
// entry answers for every page of its extent.
func (t *mappingTable) lookup(k mapKey) bool {
	if t.find(k) {
		t.hits++
		return true
	}
	if t.spanSeen != 0 {
		for o := 1; o <= MaxExtentOrder; o++ {
			if t.spanSeen&(1<<uint(o)) == 0 {
				continue
			}
			if t.find(spanMapKey(mapKey{k.seg, extentBase(k.page, o)}, o)) {
				t.hits++
				return true
			}
		}
	}
	t.misses++
	return false
}

// insertSpan caches one key covering a whole extent under its tagged span
// key; lookup's masked-base probes find it for every covered page.
func (t *mappingTable) insertSpan(k mapKey, order uint8) {
	t.spanSeen |= 1 << order
	t.insert(spanMapKey(k, int(order)))
}

// removeSpan withdraws a span entry (extent demoted).
func (t *mappingTable) removeSpan(k mapKey, order uint8) {
	t.remove(spanMapKey(k, int(order)))
}

// insert caches a mapping, displacing any colliding occupant to the overflow
// area (and dropping the displaced mapping if the overflow area is full).
//
// The overflow area is touched only on displacement — the common case
// (empty or same-key slot) stays O(1), which matters because every
// MigratePages runs through here. A displacement first purges copies of
// both keys: the inserted key (which may have been displaced there
// earlier) and the displaced occupant (which must not end up in the area
// twice). Both keys are homed at this slot, so the purge runs only when
// its homed count is non-zero. The occupant then takes the first free
// entry; the search runs only while the area has one. A same-key overwrite
// can therefore leave a copy of k in the overflow area shadowed by its
// slot; remove sweeps both areas and the copy is purged the next time k's
// slot is displaced, so at most one overflow copy per key ever exists.
func (t *mappingTable) insert(k mapKey) {
	s := &t.slots[t.index(k)]
	if s.valid && !s.holds(k) {
		displaced := mapKey{s.seg, s.page}
		ov := t.overflow[:t.ovLen]
		if s.homed != 0 {
			for i := range ov {
				if o := &ov[i]; o.holds(k) || o.holds(displaced) {
					o.valid = false
					s.homed--
					t.ovLive--
				}
			}
		}
		if t.ovLive < t.ovLen {
			free := 0
			for ov[free].valid {
				free++
			}
			ov[free] = hashSlot{page: s.page, seg: s.seg, valid: true}
			s.homed++
			t.ovLive++
			t.spills++
		} else {
			t.drops++ // overflow full: the displaced mapping is forgotten
		}
	}
	s.page, s.seg, s.valid = k.page, k.seg, true
}

// remove forgets a mapping (page unmapped, migrated away, or flags changed
// such that cached translations must not be used).
func (t *mappingTable) remove(k mapKey) {
	s := &t.slots[t.index(k)]
	if s.holds(k) {
		s.valid = false
	}
	if s.homed == 0 {
		return
	}
	ov := t.overflow[:t.ovLen]
	for i := range ov {
		if ov[i].holds(k) {
			ov[i].valid = false
			s.homed--
			t.ovLive--
		}
	}
}

// removeSegment drops every cached mapping of one segment (segment delete).
func (t *mappingTable) removeSegment(seg SegID) {
	for i := range t.slots {
		if t.slots[i].valid && t.slots[i].seg == seg {
			t.slots[i].valid = false
		}
	}
	ov := t.overflow[:t.ovLen]
	for i := range ov {
		if o := &ov[i]; o.valid && o.seg == seg {
			o.valid = false
			t.slots[t.index(mapKey{o.seg, o.page})].homed--
			t.ovLive--
		}
	}
}

// stats reads the counters; resetStats zeroes them. Kernel.Stats and
// Kernel.ResetStats go through this pair exclusively so a counter added here
// is automatically reported and cleared together.
func (t *mappingTable) stats() (hits, misses, spills, drops int64) {
	return t.hits, t.misses, t.spills, t.drops
}

func (t *mappingTable) resetStats() {
	t.hits, t.misses, t.spills, t.drops = 0, 0, 0, 0
}
