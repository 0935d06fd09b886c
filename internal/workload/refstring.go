package workload

import (
	"math"

	"epcm/internal/sim"
)

// Reference-string generators for the policy shootout: deterministic page
// access sequences with the canonical locality shapes of the replacement
// literature. Each returns the full sequence so two runs (or two
// schedulers) replay byte-identical traffic.

// ZipfRefs generates n references over pages [0, pages) drawn from a
// Zipf(s) popularity distribution — heavy skew onto a small hot set, the
// web/database cache shape where recency and frequency policies shine.
func ZipfRefs(pages int64, n int, s float64, seed uint64) []int64 {
	// Build the CDF once; sampling is a binary search per reference.
	cdf := make([]float64, pages)
	total := 0.0
	for i := int64(0); i < pages; i++ {
		total += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	rng := sim.NewRNG(seed)
	refs := make([]int64, n)
	for i := range refs {
		u := rng.Float64() * total
		lo, hi := int64(0), pages-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		// Decorrelate popularity rank from page number so the hot set is
		// not one contiguous run (which would flatter scan-ish policies).
		refs[i] = (lo * 7919) % pages
	}
	return refs
}

// LoopRefs generates n references cycling sequentially over [0, pages) —
// the canonical LRU-killer when the loop is slightly larger than memory
// (LRU/clock evict exactly the page the loop wants next).
func LoopRefs(pages int64, n int) []int64 {
	refs := make([]int64, n)
	for i := range refs {
		refs[i] = int64(i) % pages
	}
	return refs
}

// MixedRefs interleaves a Zipf hot set over [0, hotPages) with periodic
// sequential cold bursts above it (64 pages every 400 references, never
// revisited) — the scan-pollution shape, where one pass of cold data can
// flush a recency policy's hot set. No policy owns it: on the policy
// sweep's mixed rows random, clock and lfu each lead at one pressure.
func MixedRefs(hotPages int64, n int, seed uint64) []int64 {
	const burstEvery, burstLen = 400, 64
	zipf := ZipfRefs(hotPages, n, 1.1, seed)
	refs := make([]int64, 0, n)
	cold := hotPages // next never-revisited cold page
	zi := 0
	for len(refs) < n {
		for i := 0; i < burstEvery-burstLen && len(refs) < n; i++ {
			refs = append(refs, zipf[zi])
			zi++
		}
		for i := 0; i < burstLen && len(refs) < n; i++ {
			refs = append(refs, cold)
			cold++
		}
	}
	return refs
}

// Footprint reports the number of distinct pages a reference string
// touches, assuming pages are dense from 0 (max+1).
func Footprint(refs []int64) int64 {
	max := int64(-1)
	for _, p := range refs {
		if p > max {
			max = p
		}
	}
	return max + 1
}
