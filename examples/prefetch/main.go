// Prefetch: the paper's §1 motivating example — a large-scale scientific
// computation (MP3D-style particle simulation) that scans a dataset bigger
// than physical memory once per simulated time step. "Scientific
// computations using large data sets can often predict their data access
// patterns well in advance, which allows the disk access latency to be
// overlapped with current computation, if efficient application-directed
// readahead and writeback are supported by the operating system."
//
// An application-specific prefetching segment manager (specialized from the
// generic manager) overlaps page fetches with the computation; the demand-
// paged run serializes them.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"epcm"
)

func main() {
	pages := flag.Int64("pages", 512, "dataset size in 4 KB pages")
	computeMS := flag.Int("compute", 20, "computation per page (ms)")
	depth := flag.Int("depth", 8, "read-ahead depth in pages")
	flag.Parse()
	compute := time.Duration(*computeMS) * time.Millisecond

	demand := run(*pages, compute, 0)
	prefetch := run(*pages, compute, *depth)
	pure := time.Duration(*pages) * compute

	fmt.Printf("scan of %d pages with %v compute per page:\n", *pages, compute)
	fmt.Printf("  pure computation          %v\n", pure)
	fmt.Printf("  demand paging             %v  (+%d%% over compute)\n",
		demand, 100*(demand-pure)/pure)
	fmt.Printf("  prefetch depth %-2d         %v  (+%d%% over compute)\n",
		*depth, prefetch, 100*(prefetch-pure)/pure)
	fmt.Printf("  speedup from read-ahead   %.2fx\n", float64(demand)/float64(prefetch))
}

func run(pages int64, compute time.Duration, depth int) time.Duration {
	disk := epcm.LocalDisk()
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 64 << 20, StoreData: true, Storage: &disk})
	if err != nil {
		log.Fatal(err)
	}
	sys.Store.Preload("particles", pages, nil)
	pool, err := sys.NewFixedPool(pages+64, 0)
	if err != nil {
		log.Fatal(err)
	}

	var seg *epcm.Segment
	if depth > 0 {
		pf, _, err := sys.NewPrefetch(epcm.ManagerConfig{Name: "mp3d", Source: pool}, depth, 0)
		if err != nil {
			log.Fatal(err)
		}
		if seg, err = pf.CreateManagedSegment("particles"); err != nil {
			log.Fatal(err)
		}
		pf.BindFile(seg, "particles")
	} else {
		fb := epcm.NewFileBacking(sys.Store)
		g, _, err := sys.NewAppManager(epcm.ManagerConfig{Name: "demand", Backing: fb, Source: pool}, 0)
		if err != nil {
			log.Fatal(err)
		}
		if seg, err = g.CreateManagedSegment("particles"); err != nil {
			log.Fatal(err)
		}
		fb.BindFile(seg, "particles")
	}

	start := sys.Clock.Now()
	for p := int64(0); p < pages; p++ {
		if err := sys.Kernel.Access(seg, p, epcm.Read); err != nil {
			log.Fatal(err)
		}
		sys.Clock.Advance(compute) // the simulation step for this page's particles
	}
	return sys.Clock.Now() - start
}
