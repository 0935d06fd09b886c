// Checkpoint: the user-level virtual-memory algorithms the paper's §3.1
// argues benefit from cheap fault handling (citing Appel & Li) — concurrent
// checkpointing and a concurrent-GC write barrier — built on an
// application-specific segment manager.
//
// The checkpoint is consistent as of Begin even though the application
// keeps mutating: first writes fault to the manager, which saves the old
// page contents before enabling the write. The program prints what the
// mid-checkpoint writes cost on V++, the saves' disk I/O included, beside
// the fault cost alone that the same trapped writes would pay through the
// Ultrix signal+mprotect handler of a conventional system.
package main

import (
	"fmt"
	"log"
	"time"

	"epcm"
)

const pages = 64

func main() {
	disk := epcm.LocalDisk()
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 16 << 20, StoreData: true, Storage: &disk})
	if err != nil {
		log.Fatal(err)
	}
	pool, err := sys.NewFixedPool(1024, 0)
	if err != nil {
		log.Fatal(err)
	}

	ckpt := epcm.NewCheckpointer(sys)
	mgr, _, err := sys.NewAppManager(epcm.ManagerConfig{
		Name:       "app-manager",
		Source:     pool,
		Protection: ckpt.Hook(),
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	seg, err := mgr.CreateManagedSegment("heap")
	if err != nil {
		log.Fatal(err)
	}
	ckpt.Attach(mgr, seg)

	// Build application state.
	for p := int64(0); p < pages; p++ {
		if err := sys.Kernel.Access(seg, p, epcm.Write); err != nil {
			log.Fatal(err)
		}
		seg.FrameAt(p).Data()[0] = byte(p)
	}

	// Take a checkpoint while the application keeps writing.
	if err := ckpt.Begin(); err != nil {
		log.Fatal(err)
	}
	start := sys.Clock.Now()
	appWrites := []int64{3, 9, 9, 17, 40}
	for _, p := range appWrites {
		if err := sys.Kernel.Access(seg, p, epcm.Write); err != nil {
			log.Fatal(err)
		}
		seg.FrameAt(p).Data()[0] = 0xFF // post-checkpoint value
	}
	mutationTime := sys.Clock.Now() - start
	if err := ckpt.Finish(); err != nil {
		log.Fatal(err)
	}

	img, err := ckpt.Image(1, pages)
	if err != nil {
		log.Fatal(err)
	}
	consistent := true
	for p := int64(0); p < pages; p++ {
		if img[p][0] != byte(p) {
			consistent = false
		}
	}
	fmt.Printf("checkpoint of %d pages: consistent as of Begin = %v\n", pages, consistent)
	fmt.Printf("  saved in fault path: %d pages, drained in background: %d pages\n",
		ckpt.FaultSaves(), ckpt.DrainSaves())
	fmt.Printf("  application's %d mid-checkpoint writes cost %v total\n",
		len(appWrites), mutationTime.Round(time.Microsecond))
	fmt.Printf("  (the same writes through an Ultrix signal handler: %v of fault cost alone)\n",
		time.Duration(ckpt.FaultSaves())*sys.Cost.UltrixUserFaultHandler())

	// The write barrier: a concurrent GC's remembered set.
	wb := epcm.NewWriteBarrier(sys, seg)
	mgr2, _, err := sys.NewAppManager(epcm.ManagerConfig{
		Name:       "gc-manager",
		Source:     pool,
		Protection: wb.Hook(),
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	// Hand the segment to the GC's manager for the mark phase.
	mgr2.Manage(seg)
	if err := wb.Begin(); err != nil {
		log.Fatal(err)
	}
	for _, p := range []int64{5, 5, 12} {
		if err := sys.Kernel.Access(seg, p, epcm.Write); err != nil {
			log.Fatal(err)
		}
	}
	written := wb.End()
	fmt.Printf("\nGC write barrier recorded pages %v with %d faults (duplicates free)\n",
		written, wb.Faults())
}
