// Coloring: application-controlled physical page placement (§1, §2.4).
//
// "An application can allocate physical pages to virtual pages to minimize
// mapping collisions in physically addressed caches and TLBs, implementing
// page coloring on an application-specific basis."
//
// A hot working set the size of the cache is allocated twice: by a
// color-aware segment manager that requests one frame per cache color from
// its frame pool, and by an unlucky conventional allocation whose frames
// share colors. The physically-indexed cache model shows the difference:
// near-zero misses vs persistent conflict misses.
//
// The same constraint mechanism drives NUMA placement on a DASH-like
// machine: the second half of the demo pins alternating pages to nodes.
package main

import (
	"fmt"
	"log"

	"epcm"
)

const colors = 16

func main() {
	missColored := cacheMissRatio(true)
	missConflict := cacheMissRatio(false)
	fmt.Printf("hot set of %d pages, %d-color 2-way physically-indexed cache:\n", colors, colors)
	fmt.Printf("  color-aware allocation   miss ratio %.3f\n", missColored)
	fmt.Printf("  conflicting allocation   miss ratio %.3f\n", missConflict)

	placement()
}

func cacheMissRatio(colored bool) float64 {
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 16 << 20, CacheColors: colors, StoreData: true})
	if err != nil {
		log.Fatal(err)
	}
	pool, err := sys.NewFixedPool(2048, 0)
	if err != nil {
		log.Fatal(err)
	}
	cfg := epcm.ManagerConfig{Name: "hot", Source: pool}
	var g *epcm.Generic
	if colored {
		// One frame of each color: page p gets color p mod colors.
		g, _, err = sys.NewColoring(cfg, colors, 0)
	} else {
		// A conventional allocator can hand out frames that all collide.
		cfg.Constraint = func(f epcm.Fault) epcm.FrameRange {
			r := epcm.AnyFrame()
			r.Color = 0
			return r
		}
		g, _, err = sys.NewAppManager(cfg, 0)
	}
	if err != nil {
		log.Fatal(err)
	}
	seg, err := g.CreateManagedSegment("hot-data")
	if err != nil {
		log.Fatal(err)
	}
	for p := int64(0); p < colors; p++ {
		if err := sys.Kernel.Access(seg, p, epcm.Write); err != nil {
			log.Fatal(err)
		}
	}
	cache := epcm.NewCache(colors, 2)
	for round := 0; round < 500; round++ {
		for p := int64(0); p < colors; p++ {
			cache.Access(seg.FrameAt(p))
		}
	}
	return cache.MissRatio()
}

// placement demonstrates NUMA-aware frame allocation: even pages on node 0,
// odd pages on node 1, as a DASH application would place data near the
// processors using it.
func placement() {
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 16 << 20, Nodes: 2, StoreData: true})
	if err != nil {
		log.Fatal(err)
	}
	pool, err := sys.NewFixedPool(4000, 0)
	if err != nil {
		log.Fatal(err)
	}
	g, _, err := sys.NewPlacement(epcm.ManagerConfig{Name: "dash", Source: pool},
		func(f epcm.Fault) int { return int(f.Page % 2) }, 0)
	if err != nil {
		log.Fatal(err)
	}
	seg, err := g.CreateManagedSegment("shared-array")
	if err != nil {
		log.Fatal(err)
	}
	for p := int64(0); p < 8; p++ {
		if err := sys.Kernel.Access(seg, p, epcm.Write); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nNUMA placement (even pages -> node 0, odd -> node 1):")
	attrs, err := sys.Kernel.GetPageAttributes(seg, 0, 8)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range attrs {
		fmt.Printf("  page %d -> PFN %5d  node %d\n", a.Page, a.PFN, a.Node)
	}
}
