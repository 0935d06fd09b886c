package spcm

import (
	"errors"
	"math"
	"testing"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
)

type fixture struct {
	clock *sim.Clock
	k     *kernel.Kernel
	s     *SPCM
}

func newFixture(t *testing.T, policy Policy) *fixture {
	t.Helper()
	return newFixtureOn(t, policy, kernel.Config{})
}

// newFixtureOn boots the fixture's kernel with cfg. A test that calls the
// kernel from several goroutines needs cfg.Concurrent: a serial kernel takes
// no segment lock and admits one goroutine at a time.
func newFixtureOn(t *testing.T, policy Policy, cfg kernel.Config) *fixture {
	t.Helper()
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 4 << 20, CacheColors: 8, Nodes: 2, StoreData: true})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), cfg)
	fx := &fixture{clock: &clock, k: k, s: New(k, policy)}
	t.Cleanup(func() { // every account's slot ledger included
		if err := fx.s.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
	return fx
}

func (fx *fixture) newClient(t *testing.T, name string, income float64) (*manager.Generic, *Account) {
	t.Helper()
	g, err := manager.NewGeneric(fx.k, manager.Config{Name: name, Source: fx.s})
	if err != nil {
		t.Fatal(err)
	}
	a := fx.s.Register(g, name, income)
	return g, a
}

func TestSPCMOwnsAllFramesAtBoot(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	if fx.s.FreeFrames() != 1024 {
		t.Fatalf("free = %d, want 1024", fx.s.FreeFrames())
	}
}

func TestGrantMigratesFrames(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	g, _ := fx.newClient(t, "app", 0)
	n, err := fx.s.RequestFrames(g, 16, phys.AnyFrame())
	if err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Fatalf("granted %d, want 16", n)
	}
	if g.FreeFrames() != 16 {
		t.Fatalf("manager free = %d", g.FreeFrames())
	}
	if fx.s.FreeFrames() != 1024-16 {
		t.Fatalf("pool = %d", fx.s.FreeFrames())
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestUnregisteredRequestFails(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	g, err := manager.NewGeneric(fx.k, manager.Config{Name: "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.s.RequestFrames(g, 1, phys.AnyFrame()); err == nil {
		t.Fatal("unregistered request succeeded")
	}
}

func TestConstrainedGrantByColorAndNode(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	g, _ := fx.newClient(t, "app", 0)
	n, err := fx.s.RequestFrames(g, 8, phys.Range{Color: 3, Node: phys.NodeAny})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("granted %d", n)
	}
	for _, p := range g.FreeSegment().Pages() {
		if g.FreeSegment().FrameAt(p).Color() != 3 {
			t.Fatal("wrong color granted")
		}
	}
	n, err = fx.s.RequestFrames(g, 4, phys.Range{Color: phys.ColorAny, Node: 1})
	if err != nil || n != 4 {
		t.Fatalf("node grant n=%d err=%v", n, err)
	}
}

func TestConstrainedGrantByAddressRange(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	g, _ := fx.newClient(t, "app", 0)
	n, err := fx.s.RequestFrames(g, 4, phys.Range{Lo: 100, Hi: 108, Color: phys.ColorAny, Node: phys.NodeAny})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("granted %d", n)
	}
	for _, p := range g.FreeSegment().Pages() {
		pfn := g.FreeSegment().FrameAt(p).PFN()
		if pfn < 100 || pfn >= 108 {
			t.Fatalf("pfn %d outside requested range", pfn)
		}
	}
}

// "It allocates and provides as many page frames as it can" — a constrained
// request larger than the matching supply grants the remainder.
func TestPartialGrantWhenConstraintShort(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	g, _ := fx.newClient(t, "app", 0)
	// Only 8 frames exist in [100, 108).
	n, err := fx.s.RequestFrames(g, 50, phys.Range{Lo: 100, Hi: 108, Color: phys.ColorAny, Node: phys.NodeAny})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("granted %d, want 8", n)
	}
	if fx.s.Stats().Deferred == 0 {
		t.Fatal("short grant not recorded as deferred")
	}
	if fx.s.Demand() == 0 {
		t.Fatal("unmet demand not recorded")
	}
}

func TestIncomeAccrues(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	_, a := fx.newClient(t, "app", 10)
	fx.clock.Advance(5 * time.Second)
	fx.s.SettleAll()
	if math.Abs(a.Balance()-50) > 1e-9 {
		t.Fatalf("balance = %v, want 50", a.Balance())
	}
}

func TestRentChargedUnderContention(t *testing.T) {
	p := DefaultPolicy()
	p.FreeWhenUncontended = false // always charge
	p.SavingsTaxRate = 0
	fx := newFixture(t, p)
	g, a := fx.newClient(t, "app", 10)
	// Hold 1 MB = 256 frames. The grant itself consumes a little virtual
	// time (kernel operations), so settle and snapshot before measuring.
	if _, err := fx.s.RequestFrames(g, 256, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	fx.s.SettleAll()
	earned0, rent0 := a.Earned(), a.RentPaid()
	fx.clock.Advance(10 * time.Second)
	fx.s.SettleAll()
	// Earned 100 more, paid 1 MB × 1 dram/MB-s × 10 s = 10 more.
	if math.Abs(a.Earned()-earned0-100) > 1e-9 || math.Abs(a.RentPaid()-rent0-10) > 1e-9 {
		t.Fatalf("earned=%v rent=%v (deltas from %v, %v)", a.Earned(), a.RentPaid(), earned0, rent0)
	}
}

func TestFreeWhenUncontendedWaivesRent(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	g, a := fx.newClient(t, "app", 10)
	if _, err := fx.s.RequestFrames(g, 256, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	fx.clock.Advance(10 * time.Second)
	fx.s.SettleAll()
	if a.RentPaid() != 0 {
		t.Fatalf("rent %v charged while memory uncontended", a.RentPaid())
	}
}

func TestSavingsTax(t *testing.T) {
	p := DefaultPolicy()
	p.SavingsTaxFloor = 100
	p.SavingsTaxRate = 0.5
	fx := newFixture(t, p)
	_, a := fx.newClient(t, "miser", 200)
	fx.clock.Advance(1 * time.Second)
	fx.s.SettleAll()
	// Earned 200, then (200-100)*0.5*1 = 50 tax.
	if math.Abs(a.TaxPaid()-50) > 1e-9 {
		t.Fatalf("tax = %v, want 50", a.TaxPaid())
	}
}

func TestIOCharge(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	g, a := fx.newClient(t, "scanner", 10)
	fx.s.ChargeIO(g, 100)
	fx.clock.Advance(time.Second)
	fx.s.SettleAll()
	want := 100 * fx.s.Policy().IOChargePerPage
	if math.Abs(a.IOPaid()-want) > 1e-9 {
		t.Fatalf("io paid = %v, want %v", a.IOPaid(), want)
	}
}

func TestInsolventRequestRefused(t *testing.T) {
	p := DefaultPolicy()
	p.FreeWhenUncontended = false
	p.MinGrantBalance = 0
	fx := newFixture(t, p)
	g, a := fx.newClient(t, "broke", 0.001)
	fx.s.ChargeIO(g, 10000) // drive the balance deeply negative
	fx.s.SettleAll()
	if a.Balance() >= 0 {
		t.Fatalf("balance = %v, want negative", a.Balance())
	}
	n, err := fx.s.RequestFrames(g, 4, phys.AnyFrame())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("granted %d to an insolvent account", n)
	}
	if fx.s.Stats().Refused == 0 {
		t.Fatal("refusal not counted")
	}
}

func TestEnforceReclaimsFromInsolvent(t *testing.T) {
	p := DefaultPolicy()
	p.FreeWhenUncontended = false
	fx := newFixture(t, p)
	g, a := fx.newClient(t, "debtor", 1)
	// Hold 2 MB at income 1 dram/s: rent (2/s) outruns income.
	if _, err := fx.s.RequestFrames(g, 512, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	// Place half of it into a segment so enforcement must reclaim.
	seg, err := g.CreateManagedSegment("data")
	if err != nil {
		t.Fatal(err)
	}
	for pg := int64(0); pg < 128; pg++ {
		if err := fx.k.Access(seg, pg, kernel.Read); err != nil {
			t.Fatal(err)
		}
	}
	// Clear reference bits so the clock can take them.
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 0, 128, 0, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	// Run rent far past the income.
	fx.clock.Advance(500 * time.Second)
	fx.s.SettleAll()
	if a.Balance() >= 0 {
		t.Fatalf("balance = %v, want negative", a.Balance())
	}
	poolBefore := fx.s.FreeFrames()
	n, err := fx.s.Enforce()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("enforcement reclaimed nothing")
	}
	if fx.s.FreeFrames() != poolBefore+n {
		t.Fatalf("pool %d, want %d", fx.s.FreeFrames(), poolBefore+n)
	}
	if fx.s.Stats().ForcedReclaims != int64(n) {
		t.Fatalf("forced reclaims = %d, want %d", fx.s.Stats().ForcedReclaims, n)
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// An account just below zero keeps what it can hold solvent for the next
// second, (income + balance)/price MB, and gives back only the rest: at
// 1.5 MB held on an income of 1 and a balance of about -0.11 it keeps 228
// pages, where taking back (income - balance)/price MB left it 101.
func TestEnforceLeavesSolventHolding(t *testing.T) {
	p := DefaultPolicy()
	p.FreeWhenUncontended = false
	fx := newFixture(t, p)
	g, a := fx.newClient(t, "debtor", 1)
	if _, err := fx.s.RequestFrames(g, 384, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	fx.clock.Advance(200 * time.Millisecond) // rent 1.5/s against income 1/s
	fx.s.SettleAll()
	bal := a.Balance()
	if bal >= 0 || bal < -0.2 {
		t.Fatalf("balance = %v, want just below zero", bal)
	}
	if _, err := fx.s.Enforce(); err != nil {
		t.Fatal(err)
	}
	want := int((a.Income() + bal) / p.PricePerMBSecond * fx.s.pagesPerMB())
	if got := a.HeldPages(); got != want {
		t.Fatalf("after Enforce the account holds %d pages, want %d", got, want)
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestReturnFramesGoHome(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	g, _ := fx.newClient(t, "app", 0)
	if _, err := fx.s.RequestFrames(g, 8, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ReturnFreeFrames(8); err != nil {
		t.Fatal(err)
	}
	if fx.s.FreeFrames() != 1024 {
		t.Fatalf("pool = %d after full return", fx.s.FreeFrames())
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestContiguousAndLargePage(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	g, _ := fx.newClient(t, "app", 0)
	n, err := fx.s.RequestContiguous(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("granted %d", n)
	}
	// Verify the grant is a physically contiguous run and can form a
	// 16 KB page via MigrateCoalesced.
	pages := g.FreeSegment().Pages()
	pfns := make([]phys.PFN, 0, 4)
	for _, p := range pages[len(pages)-4:] {
		pfns = append(pfns, g.FreeSegment().FrameAt(p).PFN())
	}
	big, err := fx.k.CreateSegment("large", 4)
	if err != nil {
		t.Fatal(err)
	}
	// Find the run start among the manager's free slots: the four granted
	// slots are contiguous PFNs in ascending slot order.
	start := pages[len(pages)-4]
	if err := fx.k.MigrateCoalesced(kernel.AppCred, g.FreeSegment(), big, []kernel.PageRange{{Page: start, To: 0, Pages: 1}}, kernel.FlagRW, 0); err != nil {
		t.Fatalf("coalesce of granted run (pfns %v): %v", pfns, err)
	}
	if big.PageCount() != 1 {
		t.Fatal("large page not formed")
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
	// The run left the free segment behind the manager's back, so its slot
	// ledger is stale from here on: close the account.
	if _, err := fx.s.Revoke(g); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateWait(t *testing.T) {
	p := DefaultPolicy()
	p.SavingsTaxRate = 0
	fx := newFixture(t, p)
	_, a := fx.newClient(t, "batch", 10)
	// 10 MB for 100 s costs 10*1*100 = 1000 drams; income 10/s from zero
	// balance => 100 s wait.
	wait := fx.s.EstimateWait(a, 2560, 100*time.Second)
	if wait < 99*time.Second || wait > 101*time.Second {
		t.Fatalf("wait = %v, want ~100s", wait)
	}
	fx.clock.Advance(200 * time.Second) // accrue 2000 drams
	if wait := fx.s.EstimateWait(a, 2560, 100*time.Second); wait != 0 {
		t.Fatalf("wait = %v, want 0 once affordable", wait)
	}
}

// Dram conservation: for any settle sequence, balance == earned - rent -
// tax - io (accounts start at zero).
func TestDramConservation(t *testing.T) {
	p := DefaultPolicy()
	p.FreeWhenUncontended = false
	fx := newFixture(t, p)
	g, a := fx.newClient(t, "app", 7)
	rng := sim.NewRNG(11)
	for i := 0; i < 100; i++ {
		switch rng.Intn(3) {
		case 0:
			if _, err := fx.s.RequestFrames(g, rng.Intn(32)+1, phys.AnyFrame()); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := g.ReturnFreeFrames(rng.Intn(16)); err != nil {
				t.Fatal(err)
			}
		case 2:
			fx.s.ChargeIO(g, int64(rng.Intn(10)))
		}
		fx.clock.Advance(time.Duration(rng.Intn(1000)) * time.Millisecond)
		fx.s.SettleAll()
		got := a.Balance()
		want := a.Earned() - a.RentPaid() - a.TaxPaid() - a.IOPaid()
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("step %d: balance %v != earned-charges %v", i, got, want)
		}
	}
}

// Two accounts with equal income receive an equal share of a contended
// machine over time (the paper's fairness claim), when both keep asking.
func TestEqualIncomeEqualShare(t *testing.T) {
	p := DefaultPolicy()
	p.FreeWhenUncontended = false
	fx := newFixture(t, p)
	gA, aA := fx.newClient(t, "a", 16)
	gB, aB := fx.newClient(t, "b", 16)
	for i := 0; i < 200; i++ {
		fx.clock.Advance(time.Second)
		fx.s.SettleAll()
		if _, err := fx.s.Enforce(); err != nil {
			t.Fatal(err)
		}
		// Both managers keep trying to grow.
		if aA.Balance() > 0 {
			if _, err := fx.s.RequestFrames(gA, 64, phys.AnyFrame()); err != nil {
				t.Fatal(err)
			}
		}
		if aB.Balance() > 0 {
			if _, err := fx.s.RequestFrames(gB, 64, phys.AnyFrame()); err != nil {
				t.Fatal(err)
			}
		}
	}
	ha, hb := aA.HeldPages(), aB.HeldPages()
	if ha+hb == 0 {
		t.Fatal("no memory allocated at all")
	}
	ratio := float64(ha) / float64(ha+hb)
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("equal-income accounts hold %d vs %d frames (ratio %.2f)", ha, hb, ratio)
	}
}

func TestRequestContiguousFragmentedPool(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	g, _ := fx.newClient(t, "frag", 0)
	// Fragment the pool: take every even frame.
	var evens []int64
	for pfn := int64(0); pfn < 64; pfn += 2 {
		evens = append(evens, pfn)
	}
	sponge, _ := fx.newClient(t, "sponge", 0)
	for _, pfn := range evens {
		n, err := fx.s.RequestFrames(sponge, 1, phys.Range{Lo: phys.PFN(pfn), Hi: phys.PFN(pfn + 1), Color: phys.ColorAny, Node: phys.NodeAny})
		if err != nil || n != 1 {
			t.Fatalf("sponge pfn %d: n=%d err=%v", pfn, n, err)
		}
	}
	// No 4-frame run exists below 64; but runs exist above it.
	n, err := fx.s.RequestContiguous(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("granted %d, want 4 from the unfragmented region", n)
	}
	pages := g.FreeSegment().Pages()
	var pfns []phys.PFN
	for _, p := range pages {
		pfns = append(pfns, g.FreeSegment().FrameAt(p).PFN())
	}
	for i := 1; i < len(pfns); i++ {
		if pfns[i] != pfns[i-1]+1 {
			t.Fatalf("granted frames not contiguous: %v", pfns)
		}
	}
}

func TestRequestContiguousExhaustedDefers(t *testing.T) {
	// A machine where every frame is taken: the contiguous request defers.
	fx := newFixture(t, DefaultPolicy())
	hog, _ := fx.newClient(t, "hog", 0)
	if _, err := fx.s.RequestFrames(hog, 1024, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	g, _ := fx.newClient(t, "late", 0)
	n, err := fx.s.RequestContiguous(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("granted %d from an empty pool", n)
	}
	if fx.s.Stats().Deferred == 0 {
		t.Fatal("deferral not recorded")
	}
}

// Property: after any grant/return sequence, the SPCM's free list plus all
// clients' holdings equals the machine, and no frame is double-granted.
func TestSPCMFrameAccountingProperty(t *testing.T) {
	fx := newFixture(t, DefaultPolicy())
	clients := make([]*manager.Generic, 3)
	for i := range clients {
		g, _ := fx.newClient(t, "c", 0)
		clients[i] = g
	}
	rng := sim.NewRNG(21)
	for step := 0; step < 400; step++ {
		g := clients[rng.Intn(len(clients))]
		if rng.Bool(0.6) {
			if _, err := fx.s.RequestFrames(g, rng.Intn(32)+1, phys.AnyFrame()); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := g.ReturnFreeFrames(rng.Intn(16)); err != nil {
				t.Fatal(err)
			}
		}
		if step%100 == 0 {
			if err := fx.k.CheckFrameConservation(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	total := fx.s.FreeFrames()
	for _, g := range clients {
		total += g.FreeFrames() + g.ResidentPages()
	}
	if total != 1024 {
		t.Fatalf("accounted %d frames, machine has 1024", total)
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestLaneCacheGrantPath exercises the account frame cache end to end:
// the first unconstrained grant batch-refills the cache, later grants come
// out of it without touching the shared list, constrained grants bypass it,
// contiguous requests drain it, FreeFrames counts parked frames as free,
// and Revoke hands them back to the pool. Invariants hold throughout.
func TestLaneCacheGrantPath(t *testing.T) {
	policy := DefaultPolicy()
	policy.LaneCacheRefill = 32
	fx := newFixture(t, policy)
	g, a := fx.newClient(t, "app", 0)
	if a.cache == nil {
		t.Fatal("LaneCacheRefill policy did not create an account cache")
	}

	n, err := fx.s.RequestFrames(g, 8, phys.AnyFrame())
	if err != nil || n != 8 {
		t.Fatalf("grant n=%d err=%v", n, err)
	}
	if _, refills, _ := a.cache.Stats(); refills != 1 {
		t.Fatalf("refills = %d, want 1", refills)
	}
	if a.cache.Len() != 32-8 {
		t.Fatalf("cache holds %d, want 24", a.cache.Len())
	}
	// Parked frames are still free frames.
	if fx.s.FreeFrames() != 1024-8 {
		t.Fatalf("FreeFrames = %d, want %d", fx.s.FreeFrames(), 1024-8)
	}

	// Second grant: served entirely from the cache, shared list untouched.
	listBefore := fx.s.free.Len()
	n, err = fx.s.RequestFrames(g, 8, phys.AnyFrame())
	if err != nil || n != 8 {
		t.Fatalf("cached grant n=%d err=%v", n, err)
	}
	if fx.s.free.Len() != listBefore {
		t.Fatal("cached grant touched the shared free list")
	}

	// Constrained grants bypass the cache so the full population filters.
	cacheBefore := a.cache.Len()
	n, err = fx.s.RequestFrames(g, 4, phys.Range{Color: 3, Node: phys.NodeAny})
	if err != nil || n != 4 {
		t.Fatalf("constrained grant n=%d err=%v", n, err)
	}
	if a.cache.Len() != cacheBefore {
		t.Fatal("constrained grant consumed the cache")
	}
	if err := fx.s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Contiguous requests are served without draining the cache while the
	// shared pool still has an aligned run (the buddy allocator path).
	n, err = fx.s.RequestContiguous(g, 4)
	if err != nil || n != 4 {
		t.Fatalf("contiguous n=%d err=%v", n, err)
	}
	if a.cache.Len() == 0 {
		t.Fatal("aligned-run grant should not have drained the cache")
	}
	if err := fx.s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A contiguous grant is one aligned power-of-two run: an odd length is
	// refused outright, and the cache is left as it was.
	cacheBefore = a.cache.Len()
	n, err = fx.s.RequestContiguous(g, 3)
	if err != nil || n != 0 {
		t.Fatalf("odd contiguous n=%d err=%v, want a refusal", n, err)
	}
	if a.cache.Len() != cacheBefore {
		t.Fatalf("cache holds %d after a refused odd request, want %d", a.cache.Len(), cacheBefore)
	}
	if err := fx.s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Refill again, then revoke: parked frames must rejoin the pool.
	if _, err := fx.s.RequestFrames(g, 4, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	if a.cache.Len() == 0 {
		t.Fatal("expected frames parked before revoke")
	}
	if _, err := fx.s.Revoke(g); err != nil {
		t.Fatal(err)
	}
	if fx.s.FreeFrames() != 1024 {
		t.Fatalf("FreeFrames = %d after revoke, want 1024", fx.s.FreeFrames())
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRequestFramesFailureReleasesSlots forces a grant's migration to fail
// on an occupied destination slot and checks the whole rollback: frames back
// in the pool, reserved slots back with the manager (the next grant lands on
// them instead of on fresh slot numbers), nothing listed that is not there.
func TestRequestFramesFailureReleasesSlots(t *testing.T) {
	checkFailedGrantReleasesSlots(t, 3, func(s *SPCM, g *manager.Generic) (int, error) {
		return s.RequestFrames(g, 3, phys.AnyFrame())
	})
}

// The contiguous grants roll back the same way.
func TestRequestContiguousFailureReleasesSlots(t *testing.T) {
	checkFailedGrantReleasesSlots(t, 4, func(s *SPCM, g *manager.Generic) (int, error) {
		return s.RequestContiguous(g, 4)
	})
}

func TestRequestContiguousRunsFailureReleasesSlots(t *testing.T) {
	checkFailedGrantReleasesSlots(t, 8, func(s *SPCM, g *manager.Generic) (int, error) {
		runs, err := s.RequestContiguousRuns(g, 4, 2)
		return runs * 4, err
	})
}

// checkFailedGrantReleasesSlots runs grant, which asks for frames frames,
// against a free segment whose slot 1 is occupied, then asks for as many
// plain frames with the slot cleared. (The retry is a RequestFrames because
// RequestContiguousRuns wants consecutive slots, which only the manager's
// refill plan — not a recycled slot list — provides.)
func checkFailedGrantReleasesSlots(t *testing.T, frames int, grant func(*SPCM, *manager.Generic) (int, error)) {
	t.Helper()
	fx := newFixture(t, DefaultPolicy())
	g, _ := fx.newClient(t, "app", 0)
	other, _ := fx.newClient(t, "other", 0)
	// Park one of other's frames on slot 1 of app's free segment, behind
	// app's back: its next grant reserves slots 0, 1, 2, ...
	if n, err := fx.s.RequestFrames(other, 1, phys.AnyFrame()); err != nil || n != 1 {
		t.Fatalf("setup grant = %d, %v", n, err)
	}
	held := other.FreeSegment().Pages()[0]
	if err := fx.k.MigratePages(kernel.SystemCred, other.FreeSegment(), g.FreeSegment(), held, 1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	pool := fx.s.FreeFrames()

	n, err := grant(fx.s, g)
	if n != 0 || !errors.Is(err, kernel.ErrPageBusy) {
		t.Fatalf("grant onto an occupied slot = %d, %v; want 0 and ErrPageBusy", n, err)
	}
	if g.FreeFrames() != 0 || fx.s.FreeFrames() != pool {
		t.Fatalf("after the failed grant: manager free %d, pool %d; want 0 and %d", g.FreeFrames(), fx.s.FreeFrames(), pool)
	}

	// Clear the slot (the ledger check would name the foreign frame); the
	// retried grant must reuse slots 0..frames-1.
	if err := fx.k.MigratePages(kernel.SystemCred, g.FreeSegment(), other.FreeSegment(), 1, held, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fx.s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n, err := fx.s.RequestFrames(g, frames, phys.AnyFrame()); err != nil || n != frames {
		t.Fatalf("retried grant = %d, %v; want %d", n, err, frames)
	}
	got := g.FreeSegment().Pages()
	if len(got) != frames {
		t.Fatalf("retried grant landed on slots %v, want 0..%d", got, frames-1)
	}
	for i, slot := range got {
		if slot != int64(i) {
			t.Fatalf("retried grant landed on slots %v, want 0..%d: the failed grant's slots leaked", got, frames-1)
		}
	}
	if g.FreeFrames() != frames || fx.s.FreeFrames() != pool-frames {
		t.Fatalf("after the retried grant: manager free %d, pool %d; want %d and %d", g.FreeFrames(), fx.s.FreeFrames(), frames, pool-frames)
	}
	if err := fx.s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := fx.k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}
