package phys

import "sync/atomic"

// FrameCache is a small private free-frame cache one consumer (an SPCM
// account, serving one manager's delivery lane) holds over the shared,
// striped FreeList: steady-state grants come out of the cache and only the
// occasional batch refill touches the shared stripes. The shape follows
// hardware page caches: a direct-mapped primary keyed by PFN block holds at
// most one frame per freeListBlockSize-frame block — so the cached frames
// stay spread across blocks (and so across free-list stripes and cache
// colors) — and a LIFO secondary absorbs the spill.
//
// A FrameCache is NOT safe for concurrent use. Each consumer owns exactly
// one, touched only from its own context (the SPCM's request path runs on
// the requesting lane's executor). Frames parked here remain pages of the
// kernel's boot segment — exactly like frames on the FreeList — so frame-
// conservation invariants see them unchanged; accounting code must simply
// remember to count cache contents as free (SPCM.FreeFrames does).
type FrameCache struct {
	src       *FreeList
	primary   []int64 // direct-mapped by PFN block; noPFN = empty
	primCount int
	cursor    int     // primary scan position, advances round-robin
	secondary []int64 // LIFO spill, bounded by its capacity
	refill    int     // batch size pulled from src when dry

	// count mirrors Len as an atomic so accounting readers on other
	// goroutines (SPCM.FreeFrames) can see how many frames are parked here
	// without entering the owner's context.
	count atomic.Int64

	hits    int64 // takes served from the cache
	refills int64 // batch refills from the free list
	spills  int64 // frames pushed back to the free list for lack of room
}

const noPFN = -1

// Default FrameCache geometry: 128 primary block slots cover 8192 frames of
// spread; 512 secondary entries and 256-frame refills keep a busy lane off
// the shared stripes for hundreds of faults at a time.
const (
	frameCachePrimary   = 128
	frameCacheSecondary = 512
	frameCacheRefill    = 256
)

// NewFrameCache builds a cache over src. Zero (or negative) sizes select
// the defaults; primarySlots is rounded up to a power of two.
func NewFrameCache(src *FreeList, primarySlots, secondaryCap, refill int) *FrameCache {
	if primarySlots <= 0 {
		primarySlots = frameCachePrimary
	}
	n := 1
	for n < primarySlots {
		n <<= 1
	}
	if secondaryCap <= 0 {
		secondaryCap = frameCacheSecondary
	}
	if refill <= 0 {
		refill = frameCacheRefill
	}
	c := &FrameCache{
		src:       src,
		primary:   make([]int64, n),
		secondary: make([]int64, 0, secondaryCap),
		refill:    refill,
	}
	for i := range c.primary {
		c.primary[i] = noPFN
	}
	return c
}

func (c *FrameCache) primSlot(pfn int64) int {
	return int(uint64(pfn)>>freeListBlockShift) & (len(c.primary) - 1)
}

// Len reports how many frames the cache holds. Unlike the rest of the API
// it is safe to call from any goroutine.
func (c *FrameCache) Len() int { return int(c.count.Load()) }

// Pop appends up to n cached-or-refilled PFNs to dst and returns it. When
// the cache runs dry it batch-refills from the free list; fewer than n
// results mean the free list itself is exhausted.
func (c *FrameCache) Pop(dst []int64, n int) []int64 {
	taken := 0
	for taken < n {
		if pfn, ok := c.take(); ok {
			c.hits++
			dst = append(dst, pfn)
			taken++
			continue
		}
		need := n - taken
		want := c.refill
		if need > want {
			want = need
		}
		got := c.src.Pop(want, nil)
		if len(got) == 0 {
			break
		}
		c.refills++
		// Serve the remaining need straight from the batch; park the rest.
		serve := need
		if serve > len(got) {
			serve = len(got)
		}
		dst = append(dst, got[:serve]...)
		taken += serve
		for _, p := range got[serve:] {
			if !c.put(p) {
				c.spills++
				c.src.Push([]int64{p})
			}
		}
	}
	return dst
}

// Push parks frames in the cache, spilling to the free list when full.
func (c *FrameCache) Push(pfns []int64) {
	var spill []int64
	for _, p := range pfns {
		if !c.put(p) {
			spill = append(spill, p)
		}
	}
	if len(spill) > 0 {
		c.spills += int64(len(spill))
		c.src.Push(spill)
	}
}

// Drain returns every cached frame to the free list (revocation).
func (c *FrameCache) Drain() {
	out := c.Snapshot()
	if len(out) == 0 {
		return
	}
	for i := range c.primary {
		c.primary[i] = noPFN
	}
	c.primCount = 0
	c.secondary = c.secondary[:0]
	c.count.Store(0)
	c.src.Push(out)
}

// Snapshot returns the cached PFNs (for invariant checks; the cache is
// unchanged). Like the rest of the API it requires the owner's context.
func (c *FrameCache) Snapshot() []int64 {
	out := make([]int64, 0, c.Len())
	for _, p := range c.primary {
		if p != noPFN {
			out = append(out, p)
		}
	}
	return append(out, c.secondary...)
}

// Stats reports cache activity: takes served from cache, batch refills,
// and frames spilled back for lack of room.
func (c *FrameCache) Stats() (hits, refills, spills int64) {
	return c.hits, c.refills, c.spills
}

func (c *FrameCache) take() (int64, bool) {
	if c.primCount > 0 {
		mask := len(c.primary) - 1
		for i := 0; i <= mask; i++ {
			s := (c.cursor + i) & mask
			if c.primary[s] != noPFN {
				pfn := c.primary[s]
				c.primary[s] = noPFN
				c.primCount--
				c.count.Add(-1)
				c.cursor = (s + 1) & mask
				return pfn, true
			}
		}
		c.primCount = 0 // unreachable; defensive resync
	}
	if k := len(c.secondary); k > 0 {
		pfn := c.secondary[k-1]
		c.secondary = c.secondary[:k-1]
		c.count.Add(-1)
		return pfn, true
	}
	return 0, false
}

func (c *FrameCache) put(pfn int64) bool {
	if s := c.primSlot(pfn); c.primary[s] == noPFN {
		c.primary[s] = pfn
		c.primCount++
		c.count.Add(1)
		return true
	}
	if len(c.secondary) < cap(c.secondary) {
		c.secondary = append(c.secondary, pfn)
		c.count.Add(1)
		return true
	}
	return false
}
