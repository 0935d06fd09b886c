// Quickstart: boot a V++ system, write an application-specific segment
// manager, and watch external page-cache management work — the Figure 2
// fault-handling sequence, page migration, physical page attributes, and
// application-chosen reclamation.
package main

import (
	"fmt"
	"log"
	"time"

	"epcm"
)

func main() {
	// 1. Boot a machine: 32 MB of 4 KB frames, kernel, SPCM (memory
	//    market) and the default segment manager.
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 32 << 20, StoreData: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booted: %d frames of %d bytes; SPCM holds %d free frames\n",
		sys.Mem.NumFrames(), sys.Mem.FrameSize(), sys.SPCM.FreeFrames())

	// 2. Put a file on the file server and create an application-specific
	//    segment manager whose fill routine reads from it. The Backing's
	//    Fill is the paper's "page fill routines can be easily specialized".
	sys.Store.Preload("dataset", 64, func(b int64, buf []byte) { buf[0] = byte(b) })
	backing := epcm.NewFileBacking(sys.Store)
	mgr, account, err := sys.NewAppManager(epcm.ManagerConfig{
		Name:    "quickstart-manager",
		Backing: backing,
	}, 1000 /* drams per second of income */)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Create a segment managed by *our* manager and bind its backing
	//    file. From now on, every fault on this segment comes to us.
	seg, err := mgr.CreateManagedSegment("dataset-segment")
	if err != nil {
		log.Fatal(err)
	}
	backing.BindFile(seg, "dataset")

	// 4. Reference a missing page: the kernel delivers the fault to the
	//    manager, which allocates a frame from its free-page segment
	//    (requesting more from the SPCM as needed), fills it from the file
	//    server, and migrates it to the faulting page (Figure 2).
	start := sys.Clock.Now()
	if err := sys.Kernel.Access(seg, 7, epcm.Read); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault on page 7 served in %v of virtual time; data[0]=%d\n",
		sys.Clock.Now()-start, seg.FrameAt(7).Data()[0])

	// 5. The application can see exactly which physical frame backs each
	//    page — the information page coloring and placement control need.
	attrs, err := sys.Kernel.GetPageAttributes(seg, 7, 1)
	if err != nil {
		log.Fatal(err)
	}
	a := attrs[0]
	fmt.Printf("page 7 -> PFN %d (phys %#x), color %d, node %d, flags %v\n",
		a.PFN, a.PhysAddr, a.Color, a.Node, a.Flags)

	// 6. Touch a working set, then reclaim under application control: the
	//    manager's clock picks victims, writes dirty pages back, and keeps
	//    reclaimed frames associated for fast re-faults.
	for p := int64(0); p < 16; p++ {
		if err := sys.Kernel.Access(seg, p, epcm.Write); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.Kernel.ModifyPageFlags(epcm.AppCred, seg, 0, 16, 0, epcm.FlagReferenced); err != nil {
		log.Fatal(err)
	}
	n, err := mgr.Reclaim(4, epcm.AnyFrame())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reclaimed %d frames; resident pages now %d, free frames %d\n",
		n, mgr.ResidentPages(), mgr.FreeFrames())

	// A re-fault on a reclaimed page comes straight back from the
	// manager's free-page segment — no I/O at all (§2.2).
	var victim int64 = -1
	for p := int64(0); p < 16; p++ {
		if !seg.HasPage(p) {
			victim = p
			break
		}
	}
	reads := sys.Store.Reads()
	if err := sys.Kernel.Access(seg, victim, epcm.Read); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fast re-fault of page %d: %d server reads (stats: %+v)\n",
		victim, sys.Store.Reads()-reads, mgr.Stats())

	// 7. The memory market: our account pays rent under contention and is
	//    answerable to the SPCM.
	sys.Clock.Advance(5 * time.Second)
	sys.SPCM.SettleAll()
	fmt.Printf("account %q: balance %.1f drams, holding %d pages\n",
		account.Name(), account.Balance(), account.HeldPages())
}
