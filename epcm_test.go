package epcm_test

import (
	"bytes"
	"testing"
	"time"

	"epcm"
	"epcm/internal/manager"
)

// The facade must support the full quickstart flow without reaching into
// internal packages beyond constructors.
func TestFacadeQuickstartFlow(t *testing.T) {
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 8 << 20, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.Store.Preload("data", 16, func(b int64, buf []byte) { buf[0] = byte(b) })
	backing := manager.NewFileBacking(sys.Store)
	mgr, account, err := sys.NewAppManager(epcm.ManagerConfig{Name: "facade", Backing: backing}, 500)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := mgr.CreateManagedSegment("data-seg")
	if err != nil {
		t.Fatal(err)
	}
	backing.BindFile(seg, "data")

	if err := sys.Kernel.Access(seg, 3, epcm.Read); err != nil {
		t.Fatal(err)
	}
	if seg.FrameAt(3).Data()[0] != 3 {
		t.Fatal("fill through facade wrong")
	}
	attrs, err := sys.Kernel.GetPageAttributes(seg, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !attrs[0].Present {
		t.Fatal("attributes missing")
	}
	if account.HeldPages() == 0 {
		t.Fatal("account holds nothing")
	}
	if err := sys.Kernel.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFlagsAndCreds(t *testing.T) {
	if epcm.FlagRW != epcm.FlagRead|epcm.FlagWrite {
		t.Fatal("flag re-exports inconsistent")
	}
	if epcm.AppCred.Privileged || !epcm.SystemCred.Privileged {
		t.Fatal("credential re-exports inconsistent")
	}
	if epcm.AnyFrame().Constrained() {
		t.Fatal("AnyFrame should be unconstrained")
	}
}

func TestFacadeDBExperiment(t *testing.T) {
	p := epcm.DefaultDBParams()
	p.Transactions = 500
	p.Warmup = 50
	r := epcm.RunDB(epcm.DBIndexInMemory, p)
	if r.Deadlocked != 0 || r.CompletedTxns != 500 {
		t.Fatalf("run broken: %+v", r)
	}
	if r.Average() <= 0 || r.Average() > 200*time.Millisecond {
		t.Fatalf("implausible average %v", r.Average())
	}
}

func TestFacadeWorkloads(t *testing.T) {
	specs := epcm.Workloads()
	if len(specs) != 3 {
		t.Fatalf("workloads = %d", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
	}
	for _, want := range []string{"diff", "uncompress", "latex"} {
		if !names[want] {
			t.Fatalf("missing workload %q", want)
		}
	}
}

func TestFacadeMultiPool(t *testing.T) {
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 8 << 20, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	mp := epcm.NewMultiPool(sys, "dbms")
	if _, err := mp.AddPool("relations", epcm.ManagerConfig{Source: sys.SPCM}); err != nil {
		t.Fatal(err)
	}
	pool, _ := mp.Pool("relations")
	sys.SPCM.Register(pool, "dbms.relations", 1e6)
	seg, err := mp.CreateManagedSegment("accounts", "relations")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Kernel.Access(seg, 0, epcm.Write); err != nil {
		t.Fatal(err)
	}
	if mp.Usage()["relations"] == 0 {
		t.Fatal("pool accounting empty")
	}
}

func TestFacadeMarketPolicy(t *testing.T) {
	p := epcm.DefaultMarketPolicy()
	if p.PricePerMBSecond <= 0 || p.DefaultIncome <= 0 {
		t.Fatalf("policy defaults: %+v", p)
	}
	custom := p
	custom.FreeWhenUncontended = false
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 4 << 20, Market: &custom})
	if err != nil {
		t.Fatal(err)
	}
	if sys.SPCM.Policy().FreeWhenUncontended {
		t.Fatal("custom market policy not applied")
	}
}

// Everything a downstream user needs must be reachable through the facade
// alone: this test exercises backings, traces and the user-level apps
// using only epcm-package identifiers (plus values obtained from it).
func TestFacadeIsSelfSufficient(t *testing.T) {
	sys, err := epcm.Boot(epcm.Config{MemoryBytes: 8 << 20, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	// Backings through the facade.
	fb := epcm.NewFileBacking(sys.Store)
	sb := epcm.NewSwapBacking(sys.Store)
	_ = epcm.NewCompressedBacking(sys.Store)
	_ = epcm.NewReplicatedBacking(fb, sb)
	_ = epcm.NewLoggingBacking(sys.Store, "journal")

	// A manager with a facade-only config.
	mgr, _, err := sys.NewAppManager(epcm.ManagerConfig{
		Name:     "facade-only",
		Backing:  sb,
		Delivery: epcm.DeliverSeparateProcess,
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := mgr.CreateManagedSegment("data")
	if err != nil {
		t.Fatal(err)
	}

	// Record a trace, encode, decode, replay.
	rec := epcm.NewRecorder(sys)
	rec.Register(seg, "data")
	for p := int64(0); p < 4; p++ {
		if err := rec.Access(seg, p, epcm.Write); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := rec.Trace.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := epcm.DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := epcm.Boot(epcm.Config{MemoryBytes: 8 << 20, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	mgr2, _, err := sys2.NewAppManager(epcm.ManagerConfig{Name: "replayer"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := epcm.ReplayTrace(sys2, tr, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs != 4 || res.Faults != 4 {
		t.Fatalf("replay: %+v", res)
	}

	// User-level algorithms.
	ck := epcm.NewCheckpointer(sys)
	ck.Attach(mgr, seg)
	wb := epcm.NewWriteBarrier(sys, seg)
	_ = wb
	mp3d, err := epcm.NewMP3D(sys, sb, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp3d.Step(); err != nil {
		t.Fatal(err)
	}
	q, err := epcm.NewParallelQuery(sys, sb, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	q.WorkPageTouches = 256
	q.WorkerPages = 16
	if _, err := q.Run(); err != nil {
		t.Fatal(err)
	}

	// Placement and coloring specializations.
	if _, err := epcm.NewColoring(sys, epcm.ManagerConfig{Name: "col"}, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := epcm.NewPlacement(sys, epcm.ManagerConfig{Name: "pl"},
		func(f epcm.Fault) int { return 0 }); err != nil {
		t.Fatal(err)
	}
	if err := sys.Kernel.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestMarketTrajectory runs the market ablation's loop and holds it to
// §2.4's equilibrium: an income of I sustains I/price MB, so each account
// ends within one 64-frame grant of that holding (1 024 and 512 pages at
// price 1; it reads 1 022 and 572, the last step's grant included), and the
// income-4 account's share of the held memory, sampled after each Enforce,
// stays in 0.65–0.70 over the last 200 settles (it reads 0.6515–0.6964),
// around the 2:1 income ratio's 0.667. The invariants, frame conservation
// included, hold after every Enforce.
func TestMarketTrajectory(t *testing.T) {
	minShare, maxShare := 1.0, 0.0
	aA, aB := runMarket(t, func(sys *epcm.System, step int, aA, aB *epcm.Account) {
		if err := sys.SPCM.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step < marketSteps-200 {
			return
		}
		share := float64(aA.HeldPages()) / float64(aA.HeldPages()+aB.HeldPages())
		minShare, maxShare = min(minShare, share), max(maxShare, share)
	})
	price := epcm.DefaultMarketPolicy().PricePerMBSecond
	const pagesPerMB, grant = 256, 64
	for _, a := range []*epcm.Account{aA, aB} {
		want := int(a.Income() / price * pagesPerMB)
		if got := a.HeldPages(); got < want-grant || got > want+grant {
			t.Errorf("%s (income %.0f) ends holding %d pages, want %d ± %d", a.Name(), a.Income(), got, want, grant)
		}
	}
	if minShare < 0.65 || maxShare > 0.70 {
		t.Errorf("income-4 share over the last 200 settles spans %.4f–%.4f, want within 0.65–0.70", minShare, maxShare)
	}
}
