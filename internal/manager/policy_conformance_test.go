package manager

import (
	"fmt"
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/sim"
)

// The policy-conformance suite: every policy NewPolicy builds, and the
// application's MRU policy, is driven through the same faulting workload,
// under both schedulers, wrapped in a checking shim that asserts the shared invariants — hooks stay balanced, a victim
// is always a live resident page, never pinned, never a page of the
// manager's staging free segment. A policy added to policyTable gets this
// battery for free.

// checkedPolicy wraps a Policy and verifies the host/policy contract.
type checkedPolicy struct {
	t     *testing.T
	inner Policy
	free  *kernel.Segment // the manager's staging free segment, never a victim
	live  map[PageID]bool

	inserts, removes, touches, victims int
}

func (c *checkedPolicy) PolicyName() string { return c.inner.PolicyName() }

func (c *checkedPolicy) Insert(h PolicyHost, id PageID) {
	if c.live[id] {
		c.t.Errorf("policy %s: duplicate Insert of %v", c.PolicyName(), id)
	}
	c.live[id] = true
	c.inserts++
	c.inner.Insert(h, id)
}

func (c *checkedPolicy) Touch(h PolicyHost, id PageID) {
	if !c.live[id] {
		c.t.Errorf("policy %s: Touch of non-resident %v", c.PolicyName(), id)
	}
	c.touches++
	c.inner.Touch(h, id)
}

func (c *checkedPolicy) Remove(h PolicyHost, id PageID) {
	if !c.live[id] {
		c.t.Errorf("policy %s: Remove of non-resident %v", c.PolicyName(), id)
	}
	delete(c.live, id)
	c.removes++
	c.inner.Remove(h, id)
}

func (c *checkedPolicy) Victim(h PolicyHost) (PageID, kernel.PageFlags, bool, error) {
	id, flags, ok, err := c.inner.Victim(h)
	if ok {
		c.victims++
		if !c.live[id] {
			c.t.Errorf("policy %s: victim %v is not resident", c.PolicyName(), id)
		}
		if flags.Has(kernel.FlagPinned) {
			c.t.Errorf("policy %s: victim %v is pinned", c.PolicyName(), id)
		}
		if id.Seg == c.free {
			c.t.Errorf("policy %s: victim %v is in the staging free segment", c.PolicyName(), id)
		}
	}
	return id, flags, ok, err
}

// conformanceWorkload drives a manager hard enough that every policy must
// reclaim continually: a 200-page working set over a 48-frame pool, with a
// skewed re-reference pattern and four pages pinned mid-run.
func conformanceWorkload(t *testing.T, fx *fixture, g *Generic, seg *kernel.Segment) {
	t.Helper()
	const footprint = 200
	rng := sim.NewRNG(0xC0F0_0001)
	pinned := []int64{3, 7, 11, 19}
	for i := 0; i < 2500; i++ {
		var page int64
		if rng.Bool(0.7) {
			page = rng.Int63n(footprint / 4) // hot quarter
		} else {
			page = rng.Int63n(footprint)
		}
		mode := kernel.Read
		if rng.Bool(0.3) {
			mode = kernel.Write
		}
		if err := fx.k.Access(seg, page, mode); err != nil {
			t.Fatalf("access %d (op %d): %v", page, i, err)
		}
		if i == 500 {
			for _, p := range pinned {
				if err := fx.k.Access(seg, p, kernel.Read); err != nil {
					t.Fatal(err)
				}
				if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, p, 1, kernel.FlagPinned, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Pinned pages must have survived every reclaim pass since pinning.
	for _, p := range pinned {
		if !seg.HasPage(p) {
			t.Errorf("pinned page %d was evicted", p)
		}
	}
}

func TestPolicyConformance(t *testing.T) {
	policies := []func() Policy{NewMRUPolicy}
	for _, p := range policyTable {
		policies = append(policies, p.new)
	}
	for _, newPolicy := range policies {
		name := newPolicy().PolicyName()
		for _, sched := range []string{"serial", "concurrent"} {
			t.Run(fmt.Sprintf("%s/%s", name, sched), func(t *testing.T) {
				fx := newFixture(t, 48)
				if sched == "concurrent" {
					fx.k.SetScheduler(kernel.NewConcurrentScheduler(fx.k))
				}
				inner := newPolicy()
				checked := &checkedPolicy{t: t, inner: inner, live: map[PageID]bool{}}
				g := fx.newManager(t, Config{
					Name:    "conf-" + name,
					Backing: NewSwapBacking(fx.store),
					Policy:  checked,
				})
				checked.free = g.FreeSegment()
				seg, err := g.CreateManagedSegment("conf-data")
				if err != nil {
					t.Fatal(err)
				}
				conformanceWorkload(t, fx, g, seg)

				if got, want := checked.inserts-checked.removes, g.ResidentPages(); got != want {
					t.Errorf("unbalanced hooks: inserts-removes = %d, resident = %d", got, want)
				}
				if checked.victims == 0 || g.Stats().Reclaims == 0 {
					t.Errorf("workload never reclaimed (victims=%d reclaims=%d): not exercising the policy",
						checked.victims, g.Stats().Reclaims)
				}
				if int64(checked.victims) != g.Stats().Reclaims {
					t.Errorf("victims %d != reclaims %d", checked.victims, g.Stats().Reclaims)
				}
				if err := fx.k.CheckFrameConservation(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
