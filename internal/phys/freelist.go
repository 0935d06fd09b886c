package phys

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// freeListStripes is the number of independently locked free-list shards.
// Frames are striped by PFN *block* (runs of 64 consecutive frames land in
// one stripe), so contiguous allocation still finds runs inside a single
// stripe while allocators working different parts of the pool never touch
// the same lock.
const freeListStripes = 16

const freeListBlockShift = 6 // 64-frame blocks
const freeListBlockSize = 1 << freeListBlockShift

// MaxRunOrder is the largest run AllocRunAppend can serve: 2^MaxRunOrder frames.
// An aligned run of at most freeListBlockSize frames lies entirely within
// one PFN block, and so within one stripe — which is what makes run search
// a single-stripe operation.
const MaxRunOrder = freeListBlockShift

// FreeList is a striped free-frame pool. Pop and Push on different stripes
// never contend, which is what lets one manager's grant proceed while
// another manager's return is in flight. Constraints are expressed as an
// admit callback so the list stays independent of how callers model
// placement (color, NUMA node, address ranges).
type FreeList struct {
	stripes [freeListStripes]freeStripe
	rotor   atomic.Uint32 // start stripe for unconstrained pops
}

// freeStripe holds one shard of the pool. The block bitmaps are the
// AUTHORITY on which frames are free; the LIFO slice only carries pop
// recency and may contain stale entries (frames whose bit has since been
// cleared by AllocRunAppend) and duplicates (a frame re-pushed while a stale
// entry for it still sits deeper in the slice). Readers skip any entry whose
// bit is clear; when a pfn appears twice with its bit set, the first copy
// taken claims the frame and the other copy goes stale. This laziness is
// what makes AllocRunAppend O(run length): it clears bits and leaves the
// slice alone, instead of rewriting the whole stripe to drop 16 entries.
// Push compacts the slice when stale entries outnumber live ones.
type freeStripe struct {
	mu   sync.Mutex
	pfns []int64
	live int // popcount across blocks: the number of free frames
	// blocks is the buddy view of the frames: blocks[i] is the bitmap of
	// which frames of the stripe's i-th PFN block are free. Frames freed as
	// singles coalesce here for free — a full aligned submask IS a run —
	// so AllocRunAppend never needs an explicit buddy-merge pass. It is a
	// slice and not a map so that every walk over it — above all the run search —
	// visits blocks in ascending PFN order: which frames a grant receives
	// must be a function of the pool's contents, never of map iteration.
	blocks []uint64
}

// blockOf locates pfn's bitmap word within its home stripe and its bit
// within the word.
func blockOf(pfn int64) (idx int, bit uint64) {
	return int(uint64(pfn) >> freeListBlockShift / freeListStripes), 1 << uint(pfn&(freeListBlockSize-1))
}

// blockBase is the first PFN of a stripe's idx-th block.
func blockBase(stripe, idx int) int64 {
	return int64(idx*freeListStripes+stripe) << freeListBlockShift
}

// bit reports whether pfn is free (caller holds mu).
func (s *freeStripe) bit(pfn int64) bool {
	idx, bit := blockOf(pfn)
	return idx < len(s.blocks) && s.blocks[idx]&bit != 0
}

// setBit marks pfn free in the stripe's block bitmaps (caller holds mu).
func (s *freeStripe) setBit(pfn int64) {
	idx, bit := blockOf(pfn)
	for len(s.blocks) <= idx {
		s.blocks = append(s.blocks, 0)
	}
	if s.blocks[idx]&bit == 0 {
		s.blocks[idx] |= bit
		s.live++
	}
}

// clearBit marks pfn allocated (caller holds mu).
func (s *freeStripe) clearBit(pfn int64) {
	if s.bit(pfn) {
		idx, bit := blockOf(pfn)
		s.blocks[idx] &^= bit
		s.live--
	}
}

// compact drops stale and duplicate entries, keeping the newest copy of
// every live frame in LIFO order (caller holds mu). Amortized by the
// len > 2*live trigger in Push.
func (s *freeStripe) compact() {
	seen := make(map[int64]bool, s.live)
	kept := s.pfns[:0]
	// Walk oldest→newest recording only the newest copy: mark from the tail.
	for i := len(s.pfns) - 1; i >= 0; i-- {
		p := s.pfns[i]
		if s.bit(p) && !seen[p] {
			seen[p] = true
		} else {
			s.pfns[i] = -1 // stale or older duplicate
		}
	}
	for _, p := range s.pfns {
		if p >= 0 {
			kept = append(kept, p)
		}
	}
	s.pfns = kept
}

func stripeOf(pfn int64) int {
	return int(uint64(pfn)>>freeListBlockShift) % freeListStripes
}

// NewFreeList builds a free list holding pfns, each filed under its home
// stripe.
func NewFreeList(pfns []int64) *FreeList {
	f := &FreeList{}
	for _, p := range pfns {
		s := &f.stripes[stripeOf(p)]
		s.pfns = append(s.pfns, p)
		s.setBit(p)
	}
	return f
}

// Pop removes and returns up to n frames admitted by admit (nil admits
// everything). Unconstrained pops rotate their starting stripe so
// concurrent allocators spread over the locks; constrained pops sweep all
// stripes. The result may be shorter than n when the pool (or the admitted
// subset) runs dry.
func (f *FreeList) Pop(n int, admit func(pfn int64) bool) []int64 {
	if n <= 0 {
		return nil
	}
	out := make([]int64, 0, n)
	start := int(f.rotor.Add(1)) % freeListStripes
	for i := 0; i < freeListStripes && len(out) < n; i++ {
		s := &f.stripes[(start+i)%freeListStripes]
		s.mu.Lock()
		if admit == nil {
			for len(out) < n && len(s.pfns) > 0 {
				last := len(s.pfns) - 1
				p := s.pfns[last]
				s.pfns = s.pfns[:last]
				if !s.bit(p) {
					continue // stale entry: frame already taken
				}
				out = append(out, p)
				s.clearBit(p)
			}
		} else {
			kept := s.pfns[:0]
			for _, p := range s.pfns {
				if !s.bit(p) {
					continue // stale: drop while we're rewriting anyway
				}
				if len(out) < n && admit(p) {
					out = append(out, p)
					s.clearBit(p)
				} else {
					kept = append(kept, p)
				}
			}
			s.pfns = kept
		}
		s.mu.Unlock()
	}
	return out
}

// Push files every frame back under its home stripe.
func (f *FreeList) Push(pfns []int64) {
	for _, p := range pfns {
		s := &f.stripes[stripeOf(p)]
		s.mu.Lock()
		s.pfns = append(s.pfns, p)
		s.setBit(p)
		if len(s.pfns) > 2*s.live+freeListBlockSize {
			s.compact()
		}
		s.mu.Unlock()
	}
}

// Len reports the total number of free frames.
func (f *FreeList) Len() int {
	n := 0
	for i := range f.stripes {
		s := &f.stripes[i]
		s.mu.Lock()
		n += s.live
		s.mu.Unlock()
	}
	return n
}

// Snapshot returns a copy of every free frame, for invariant checks. The
// copy is point-in-time consistent per stripe only.
func (f *FreeList) Snapshot() []int64 {
	out := make([]int64, 0, 64)
	for i := range f.stripes {
		s := &f.stripes[i]
		s.mu.Lock()
		for idx, bs := range s.blocks {
			for bs != 0 {
				b := bits.TrailingZeros64(bs)
				bs &^= 1 << uint(b)
				out = append(out, blockBase(i, idx)+int64(b))
			}
		}
		s.mu.Unlock()
	}
	return out
}

// AllocRunAppend removes one aligned run of 2^order consecutive free frames
// and appends it to dst (PFNs ascending), so batched callers (granting
// several runs in one call) reuse one buffer. It returns the extended slice
// and whether a run was found; on failure dst is returned unchanged. order
// is capped at MaxRunOrder so the run lies within one PFN block and the
// whole search is a per-stripe bitmap scan: an aligned all-ones submask of
// a block bitmap IS a run, so frames freed as singles re-coalesce into runs
// with no merge pass. admit (nil admits everything) must accept every frame
// of the run for it to qualify.
func (f *FreeList) AllocRunAppend(dst []int64, order int, admit func(pfn int64) bool) ([]int64, bool) {
	if order < 0 || order > MaxRunOrder {
		return dst, false
	}
	runLen := 1 << order
	mask := uint64(1)<<runLen - 1 // runLen==64 wraps to all-ones, as wanted
	start := int(f.rotor.Add(1)) % freeListStripes
	for i := 0; i < freeListStripes; i++ {
		stripe := (start + i) % freeListStripes
		s := &f.stripes[stripe]
		s.mu.Lock()
		if out, ok := s.takeRun(stripe, dst, runLen, mask, admit); ok {
			s.mu.Unlock()
			return out, true
		}
		s.mu.Unlock()
	}
	return dst, false
}

// takeRun finds and removes the lowest aligned run of runLen frames in the
// stripe (whose index the caller passes), appending them to dst (caller
// holds mu). Runs are probed at aligned offsets only, so a returned run is
// always naturally aligned to its own length. Removal is bitmap-only — the
// run's LIFO entries go stale and are skipped (and eventually compacted) by
// later pops.
func (s *freeStripe) takeRun(stripe int, dst []int64, runLen int, mask uint64, admit func(pfn int64) bool) ([]int64, bool) {
scan:
	for idx, bs := range s.blocks {
		base := blockBase(stripe, idx)
		for off := 0; off+runLen <= freeListBlockSize; off += runLen {
			m := mask << uint(off)
			if bs&m != m {
				continue
			}
			lo, hi := base+int64(off), base+int64(off+runLen)
			if admit != nil {
				for p := lo; p < hi; p++ {
					if !admit(p) {
						continue scan
					}
				}
			}
			for p := lo; p < hi; p++ {
				dst = append(dst, p)
			}
			// Clear the whole run in one bitmap write (every bit in m was
			// verified set above, so live drops by exactly runLen).
			s.blocks[idx] = bs &^ m
			s.live -= runLen
			return dst, true
		}
	}
	return dst, false
}

// CheckInvariants verifies, per stripe, that the bitmaps and the LIFO slice
// agree: the live counter matches the bitmap popcount, every free frame has
// at least one slice entry, and no frame is filed under the wrong stripe. Stale slice entries (bit cleared) and duplicates are
// legal — they are the cost of O(1) run removal — but may never outnumber
// the compaction bound. It locks one stripe at a time, so it is safe to
// call while other goroutines allocate (each stripe's check is atomic on
// its own).
func (f *FreeList) CheckInvariants() error {
	for i := range f.stripes {
		s := &f.stripes[i]
		s.mu.Lock()
		inSlice := make(map[int64]bool, len(s.pfns))
		for _, p := range s.pfns {
			if stripeOf(p) != i {
				s.mu.Unlock()
				return fmt.Errorf("phys: pfn %d filed under stripe %d, home is %d", p, i, stripeOf(p))
			}
			inSlice[p] = true
		}
		bitCount := 0
		for idx, bs := range s.blocks {
			bitCount += bits.OnesCount64(bs)
			for b := 0; b < freeListBlockSize; b++ {
				if pfn := blockBase(i, idx) + int64(b); bs&(1<<uint(b)) != 0 && !inSlice[pfn] {
					s.mu.Unlock()
					return fmt.Errorf("phys: pfn %d set in stripe %d bitmap but not in free slice", pfn, i)
				}
			}
		}
		if bitCount != s.live {
			s.mu.Unlock()
			return fmt.Errorf("phys: stripe %d live counter %d, bitmap holds %d", i, s.live, bitCount)
		}
		if bitCount > len(s.pfns) {
			s.mu.Unlock()
			return fmt.Errorf("phys: stripe %d bitmap holds %d frames, slice only %d entries", i, bitCount, len(s.pfns))
		}
		s.mu.Unlock()
	}
	return nil
}
