// Adaptive: the paper's §1 motivating scenario — a large-scale particle
// simulation (MP3D-style) that adjusts the number of particles it uses,
// and thus the amount of memory it requires, based on the availability of
// physical memory.
//
// The same total work (particle·steps) is run twice on a market-governed
// machine where the simulation's dram income sustains only about half of
// its maximum appetite:
//
//   - adaptive: queries the SPCM (free frames, unmet demand, affordable
//     rent) and right-sizes its working set, discarding regenerable
//     particle pages with no I/O;
//   - oblivious: keeps the full working set, goes insolvent, loses frames
//     to SPCM enforcement (with swap writebacks) and refaults them from
//     disk every step — the thrashing the paper warns about.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"epcm"
)

func main() {
	work := flag.Int64("work", 30000, "total work in page-steps")
	income := flag.Float64("income", 0.375, "simulation's dram income per second")
	flag.Parse()

	fmt.Printf("total work: %d page·steps; income sustains ~%.0f pages of a 200-page appetite\n\n",
		*work, *income*256)
	for _, adaptive := range []bool{true, false} {
		elapsed, steps, ioOps, shrinks := run(*work, *income, adaptive)
		mode := "oblivious"
		if adaptive {
			mode = "adaptive "
		}
		fmt.Printf("%s: %10v elapsed, %4d steps, %5d disk ops, %d shrinks\n",
			mode, elapsed.Round(time.Millisecond), steps, ioOps, shrinks)
	}
}

func run(work int64, income float64, adaptive bool) (time.Duration, int64, int64, int64) {
	policy := epcm.DefaultMarketPolicy()
	policy.FreeWhenUncontended = false
	policy.SavingsTaxRate = 0
	disk := epcm.LocalDisk()
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 2 << 20, Market: &policy, Storage: &disk})
	if err != nil {
		log.Fatal(err)
	}

	m, err := epcm.NewMP3D(sys, epcm.NewSwapBacking(sys.Store), income)
	if err != nil {
		log.Fatal(err)
	}
	m.Adaptive = adaptive
	m.MaxPages = 200
	m.MinPages = 16
	m.Tick = func() {
		sys.SPCM.SettleAll()
		if _, err := sys.SPCM.Enforce(); err != nil {
			log.Fatal(err)
		}
	}
	start := sys.Clock.Now()
	steps, err := m.RunWork(work)
	if err != nil {
		log.Fatal(err)
	}
	return sys.Clock.Now() - start, steps, sys.Store.Reads() + sys.Store.Writes(), m.Shrinks()
}
