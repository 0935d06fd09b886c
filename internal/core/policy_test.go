package core

// Policy-plane tests at the system level: differential determinism (every
// policy must produce identical model-time behaviour under the serial and
// concurrent schedulers), SPCM ledger cleanliness after policy-driven
// reclaim storms, and the adoption seam — pages adopted from a crashed
// manager must enter the default manager's policy state, or the adopting
// policy can never evict them and the system wedges on ErrNoMemory.

import (
	"fmt"
	"testing"
	"time"

	"epcm/internal/faultinject"
	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/workload"
)

// policyRun boots a system with the named boot policy (or, when own is
// non-nil, gives the app manager that application policy), replays a fixed
// mixed reference string through the app manager, and returns the
// model-visible outcome.
type policyOutcome struct {
	Faults     int64
	Reclaims   int64
	Writebacks int64
	Clock      time.Duration
}

func policyRun(t *testing.T, name, sched string, own func() manager.Policy) policyOutcome {
	t.Helper()
	cfg := Config{
		MemoryBytes: 1 << 20, // 256 frames
		StoreData:   true,
		Scheduler:   sched,
	}
	var p manager.Policy
	if own != nil {
		p = own()
	} else {
		cfg.ReclaimPolicy = name
	}
	sys, err := Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := sys.NewAppManager(manager.Config{
		Name:    "diff-" + name,
		Backing: manager.NewSwapBacking(sys.Store),
		Policy:  p,
	}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Policy().PolicyName(); got != name {
		t.Fatalf("policy %q produced manager policy %q", name, got)
	}
	seg, err := g.CreateManagedSegment("diff-data")
	if err != nil {
		t.Fatal(err)
	}
	// 400-page hot set with cold scan bursts over a 256-frame machine:
	// every policy must evict, and the scan pollution separates them.
	refs := workload.MixedRefs(400, 6000, 0xD1FF)
	for _, p := range refs {
		if err := sys.Kernel.Access(seg, p, kernel.Write); err != nil {
			t.Fatalf("policy %s sched %s: %v", name, sched, err)
		}
	}
	if err := sys.SPCM.CheckInvariants(); err != nil {
		t.Fatalf("policy %s sched %s: SPCM invariants: %v", name, sched, err)
	}
	st := g.Stats()
	return policyOutcome{Faults: st.Faults, Reclaims: st.Reclaims, Writebacks: st.Writebacks, Clock: sys.Clock.Now()}
}

// TestPolicyDifferentialDeterminism: for every named policy and every
// application policy of appPolicies, the same reference string must produce a fully identical outcome (final clock
// included) across repeated runs of each scheduler, and identical
// model-time counts — faults, reclaims, writebacks — across the two
// schedulers. (The concurrent plane charges delivery hand-off slightly
// differently, so only the counts are comparable cross-scheduler; the
// paging decisions themselves must not depend on the scheduler.)
func TestPolicyDifferentialDeterminism(t *testing.T) {
	for _, pc := range policyCases() {
		name := pc.name
		t.Run(name, func(t *testing.T) {
			serial1 := policyRun(t, name, "serial", pc.own)
			serial2 := policyRun(t, name, "serial", pc.own)
			conc1 := policyRun(t, name, "concurrent", pc.own)
			conc2 := policyRun(t, name, "concurrent", pc.own)
			if serial1 != serial2 {
				t.Fatalf("serial runs diverge:\n%+v\n%+v", serial1, serial2)
			}
			if conc1 != conc2 {
				t.Fatalf("concurrent runs diverge:\n%+v\n%+v", conc1, conc2)
			}
			serial1.Clock, conc1.Clock = 0, 0
			if serial1 != conc1 {
				t.Fatalf("serial and concurrent paging behaviour diverges:\n%+v\n%+v", serial1, conc1)
			}
			if serial1.Faults == 0 || serial1.Reclaims == 0 {
				t.Fatalf("workload exercised no pressure: %+v", serial1)
			}
		})
	}
}

// TestPolicyAdoptionReclaim is the regression test for the policy/adoption
// seam: crash a manager running each policy, let the default manager adopt
// its resident pages, then keep up the memory pressure. Before the seam was
// closed, adopted pages bypassed the adopter's Insert hook, so a structured
// policy (LFU's frequency table) had no record of them and could never
// select them for eviction.
func TestPolicyAdoptionReclaim(t *testing.T) {
	for _, name := range manager.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			plan := faultinject.Plan{
				Seed:         0xAD0B,
				CrashManager: "victim-manager",
				CrashAtFault: 30,
			}
			sys, err := Boot(Config{
				MemoryBytes:   1 << 20,
				StoreData:     true,
				FaultPlan:     &plan,
				ReclaimPolicy: name,
			})
			if err != nil {
				t.Fatal(err)
			}
			g, _, err := sys.NewAppManager(manager.Config{
				Name:    "victim-manager",
				Backing: manager.NewSwapBacking(sys.Store),
			}, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := g.CreateManagedSegment("victim-data")
			if err != nil {
				t.Fatal(err)
			}
			// Drive writes until the plan kills the victim; tolerate only
			// crash-shaped errors.
			for i := 0; i < 400 && !sys.Chaos.Crashed("victim-manager"); i++ {
				if err := sys.Kernel.Access(seg, int64(i%200), kernel.Write); err != nil && !tolerable(err) {
					t.Fatalf("unexpected error pre-crash: %v", err)
				}
			}
			if !sys.Chaos.Crashed("victim-manager") {
				t.Fatal("victim manager never crashed")
			}
			if seg.Manager() != kernel.Manager(sys.Default) {
				t.Fatalf("victim segment managed by %v, want default manager", seg.Manager())
			}

			// Now the pressure phase: the default manager (running policy
			// `name`) holds the adopted pages and must evict them to make
			// room for a 600-page footprint on a 256-frame machine.
			sys.Chaos.Disarm()
			var adopted []int64
			for p := int64(0); p < 200; p++ {
				if seg.HasPage(p) {
					adopted = append(adopted, p)
				}
			}
			before := sys.Default.Generic.Stats().Reclaims
			for i := 0; i < 1800; i++ {
				if err := sys.Kernel.Access(seg, int64(i)%600, kernel.Write); err != nil {
					t.Fatalf("post-adoption access failed under %s: %v", name, err)
				}
			}
			if got := sys.Default.Generic.Stats().Reclaims; got <= before {
				t.Fatalf("default manager (%s) never reclaimed adopted pages (reclaims %d -> %d)", name, before, got)
			}
			// The last pass touched the adopted pages hundreds of faults
			// ago: a policy that knows them has evicted most of them since
			// (random keeps a few by chance). Pages its Insert hook never
			// saw stay resident for good.
			stuck := 0
			for _, p := range adopted {
				if seg.HasPage(p) {
					stuck++
				}
			}
			if len(adopted) == 0 || stuck > len(adopted)/2 {
				t.Fatalf("%d of %d adopted pages stayed resident under %s", stuck, len(adopted), name)
			}
			// Every page of the footprint is still reachable.
			for p := int64(0); p < 600; p++ {
				if err := sys.Kernel.Access(seg, p, kernel.Read); err != nil {
					t.Fatalf("page %d unreachable after adoption under %s: %v", p, name, err)
				}
			}
			if err := sys.SPCM.CheckInvariants(); err != nil {
				t.Fatalf("SPCM invariants after adoption under %s: %v", name, err)
			}
		})
	}
}

// TestPolicyChaosMatrix extends the chaos gate across the policy plane:
// every named policy and application policy × the 16 chaos seeds × both
// schedulers, under transient storage errors plus a mid-storm manager crash
// (so adoption also runs under every named policy, and takes over the
// pages of every application policy). The ledger must balance at the end
// regardless of the injected schedule.
func TestPolicyChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("policy chaos matrix is long; run without -short")
	}
	for _, pc := range policyCases() {
		if pc.name == "clock" {
			continue // clock is the policy the base chaos suite already runs
		}
		for _, sched := range chaosSchedulers {
			for _, seed := range chaosSeeds {
				t.Run(fmt.Sprintf("%s/%s/seed=%#x", pc.name, sched, seed), func(t *testing.T) {
					boot, own := pc.name, manager.Policy(nil)
					if pc.own != nil {
						boot, own = "", pc.own()
					}
					sys, _, seg := chaosSystemPolicy(t, faultinject.Plan{
						Seed:             seed,
						FetchErrorProb:   0.06,
						StoreErrorProb:   0.06,
						TornWriteProb:    0.25,
						TransientStorage: true,
						CrashManager:     "victim-manager",
						CrashAtFault:     int64(20 + seed%31),
					}, sched, boot, own)
					chaosWorkload(t, sys, seg, seed)
					if !sys.Chaos.Crashed("victim-manager") {
						t.Fatal("victim manager never crashed")
					}
					checkChaosInvariants(t, sys)
				})
			}
		}
	}
}

// policyCase is one policy the policy tests run: a manager.NewPolicy name
// (own nil), or an application policy of appPolicies.
type policyCase struct {
	name string
	own  func() manager.Policy
}

// policyCases lists the named policies, then the application policies.
func policyCases() []policyCase {
	var cases []policyCase
	for _, name := range manager.PolicyNames() {
		cases = append(cases, policyCase{name: name})
	}
	return append(cases, appPolicies...)
}
