package core

import (
	"fmt"
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/spcm"
	"epcm/internal/storage"
)

// extentFillHash boots the extent-order-4 fill shape — one manager drawing
// contiguous runs from the SPCM, every page of a fresh segment first-touched
// in order, then the segment deleted and its frames returned, for several
// epochs — and reports the mapping table's displacement counters.
func extentFillHash(t *testing.T) (spills, drops int64) {
	t.Helper()
	const (
		pages     = 4096
		frameSize = 4096
		epochs    = 3
	)
	clock := new(sim.Clock)
	mem := phys.NewMemory(phys.Config{FrameSize: frameSize, TotalBytes: 2*pages*frameSize + 8<<20})
	k := kernel.New(mem, clock, sim.DECstation5000(), kernel.Config{Superpages: true})
	policy := spcm.DefaultPolicy()
	policy.LaneCacheRefill = 512
	pool := spcm.New(k, policy)
	g, err := manager.NewGeneric(k, manager.Config{
		Name:         "extent-manager",
		Backing:      manager.NewSwapBacking(storage.NewStore(clock, storage.NetworkServer(), frameSize)),
		Delivery:     kernel.DeliverSeparateProcess,
		Source:       pool,
		RequestBatch: 32,
		LanePrefetch: 256,
		ExtentOrder:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.Register(g, g.ManagerName(), 1e9)
	for e := 0; e < epochs; e++ {
		seg, err := g.CreateManagedSegment(fmt.Sprintf("extent-%d", e))
		if err != nil {
			t.Fatal(err)
		}
		if e == 0 {
			if err := g.EnsureFree(8); err != nil {
				t.Fatal(err)
			}
		}
		for p := int64(0); p < pages; p++ {
			if err := k.Access(seg, p, kernel.Write); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.DeleteSegment(kernel.AppCred, seg); err != nil {
			t.Fatal(err)
		}
		if _, err := g.ReturnFreeFrames(pages + 1024); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
	st := k.Stats()
	return st.HashSpills, st.HashDrops
}

// TestExtentFillHashDeterministic: the mapping table is a deterministic
// function of the operation sequence, so two boots of the same extent fill
// must displace and drop exactly the same number of entries. (They once did
// not: see the determinism note in DESIGN.md.)
func TestExtentFillHashDeterministic(t *testing.T) {
	t.Parallel()
	spills, drops := extentFillHash(t)
	for boot := 1; boot < 6; boot++ {
		if s, d := extentFillHash(t); s != spills || d != drops {
			t.Fatalf("boot %d: hash spills/drops = %d/%d, first boot had %d/%d", boot, s, d, spills, drops)
		}
	}
}
