package kernel

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"epcm/internal/plane"
	"epcm/internal/sim"
)

// newOffsetTestManager is newTestManager with an explicit boot-segment
// offset, so several managers can draw disjoint frame ranges.
func newOffsetTestManager(t *testing.T, k *Kernel, start, nFree int64, d DeliveryMode) *testManager {
	t.Helper()
	free, err := k.CreateSegment(fmt.Sprintf("free-pages-%d", start), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.MigratePages(SystemCred, k.BootSegment(), free, start, 0, nFree, 0, 0); err != nil {
		t.Fatal(err)
	}
	return &testManager{t: t, k: k, free: free, delivery: d}
}

// TestChaosTimeShardClocks hammers the manager/time-shard binding under
// both delivery-plane schedulers: four managers, each bound to its own
// shard of a sharded virtual-time environment, field independent fault
// streams (concurrently, under the concurrent scheduler — run with -race in
// the chaos stage of scripts/check.sh). The invariants: each manager's
// shard clock advances monotonically, never observes a delivery below the
// conservative horizon — it must grow by at least the cost model's minimum
// delivery latency per fault — and exactly accounts the same-process
// delivery path (trap + upcall + direct resume).
func TestChaosTimeShardClocks(t *testing.T) {
	const (
		managers        = 4
		faultsPerDriver = 48
	)
	cost := sim.DECstation5000()
	minLat := cost.MinDeliveryLatency()
	perFault := cost.Trap + cost.Upcall + cost.ResumeDirect
	for _, mode := range []string{"serial", "concurrent"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			k := newTestKernel(t)
			if mode == "concurrent" {
				k.SetScheduler(NewConcurrentScheduler(k))
			}
			defer k.Scheduler().Stop()
			env := sim.NewShardedEnv(&sim.Clock{}, managers, 0)
			mgrs := make([]*testManager, managers)
			spaces := make([]*Segment, managers)
			for i := 0; i < managers; i++ {
				mgrs[i] = newOffsetTestManager(t, k, int64(i)*faultsPerDriver, faultsPerDriver, DeliverSameProcess)
				space, err := k.CreateSegment(fmt.Sprintf("space-%d", i), 1)
				if err != nil {
					t.Fatal(err)
				}
				k.SetSegmentManager(space, mgrs[i])
				k.BindTimeShard(mgrs[i], env.Shard(i))
				spaces[i] = space
				if got := env.Shard(i).Now(); got != 0 {
					t.Fatalf("shard %d clock %v before any delivery", i, got)
				}
			}
			drive := func(i int) {
				sh := env.Shard(i)
				last := sh.Now()
				for page := int64(0); page < faultsPerDriver; page++ {
					if err := k.Access(spaces[i], page, Write); err != nil {
						t.Errorf("manager %d access page %d: %v", i, page, err)
						return
					}
					now := sh.Now()
					if now < last {
						t.Errorf("manager %d shard clock went backwards: %v after %v", i, now, last)
					}
					if now < last+minLat {
						t.Errorf("manager %d fault advanced shard clock %v -> %v, below the %v delivery horizon",
							i, last, now, minLat)
					}
					last = now
				}
			}
			if mode == "concurrent" {
				var wg sync.WaitGroup
				for i := 0; i < managers; i++ {
					wg.Add(1)
					go func(i int) { defer wg.Done(); drive(i) }(i)
				}
				wg.Wait()
			} else {
				for i := 0; i < managers; i++ {
					drive(i)
				}
			}
			var makespan time.Duration
			for i := 0; i < managers; i++ {
				got := env.Shard(i).Now()
				want := faultsPerDriver * perFault
				if got != want {
					t.Errorf("manager %d shard clock %v, want %v (%d faults x %v delivery path)",
						i, got, want, faultsPerDriver, perFault)
				}
				if got > makespan {
					makespan = got
				}
			}
			// The ledger is per manager: the global clock accumulated every
			// manager's charges (plus kernel-call costs), so it must be at
			// least the per-shard makespan.
			if k.Clock().Now() < makespan {
				t.Errorf("global clock %v behind shard makespan %v", k.Clock().Now(), makespan)
			}
		})
	}
}

// TestTimeShardStamp checks the delivery plane stamps a bound manager's
// envelopes with its shard clock, not the global clock, under both
// schedulers.
func TestTimeShardStamp(t *testing.T) {
	k := newTestKernel(t)
	m := newOffsetTestManager(t, k, 0, 8, DeliverSameProcess)
	env := sim.NewShardedEnv(&sim.Clock{}, 2, 0)
	k.BindTimeShard(m, env.Shard(1))
	if got := k.TimeShardClock(m); got != env.Shard(1).Clock() {
		t.Fatal("TimeShardClock did not resolve the bound shard clock")
	}
	env.Shard(1).Clock().Advance(5 * time.Millisecond)
	if got := k.stampFor(k.cellOf(m)); got != 5*time.Millisecond {
		t.Fatalf("stamp = %v, want the shard clock's 5ms", got)
	}
	other := newOffsetTestManager(t, k, 8, 8, DeliverSameProcess)
	if got := k.TimeShardClock(other); got != k.Clock() {
		t.Fatal("unbound manager should stamp with the global clock")
	}
	k.BindTimeShard(m, nil)
	if got := k.TimeShardClock(m); got != k.Clock() {
		t.Fatal("unbinding should fall back to the global clock")
	}
}

// bootShardTest builds a kernel under the named scheduler with one manager
// serving one address space, and a two-shard environment to bind it to.
func bootShardTest(t *testing.T, mode string) (*Kernel, *testManager, *Segment, *sim.Shard) {
	t.Helper()
	k := newTestKernel(t)
	if mode == "concurrent" {
		k.SetScheduler(NewConcurrentScheduler(k))
	}
	t.Cleanup(k.Scheduler().Stop)
	m := newOffsetTestManager(t, k, 0, 8, DeliverSameProcess)
	space, err := k.CreateSegment("space", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(space, m)
	return k, m, space, sim.NewShardedEnv(&sim.Clock{}, 2, 0).Shard(1)
}

// TestBindTimeShardAfterFirstDelivery binds a manager's shard after the
// manager has fielded a fault — after its lane exists. Stamp and
// ticks must both follow the binding: the concurrent lane used to keep the
// clock it resolved when it was created, stamping envelopes with global time
// while the ticks went to the new shard.
func TestBindTimeShardAfterFirstDelivery(t *testing.T) {
	cost := sim.DECstation5000()
	perFault := cost.Trap + cost.Upcall + cost.ResumeDirect
	for _, mode := range []string{"serial", "concurrent"} {
		t.Run(mode, func(t *testing.T) {
			k, m, space, sh := bootShardTest(t, mode)
			if err := k.Access(space, 0, Write); err != nil {
				t.Fatal(err)
			}
			sh.Clock().Advance(5 * time.Millisecond) // nowhere near global time
			k.BindTimeShard(m, sh)
			c := k.cellOf(m)
			if got := k.stampFor(c); got != 5*time.Millisecond {
				t.Fatalf("stamp after a late bind = %v, want the shard's 5ms", got)
			}
			if mode == "concurrent" {
				// Hold the lane so the next fault queues, and read the stamp
				// its envelope really got.
				ln := c.lane.Load()
				ln.token.Store(true)
				done := make(chan error, 1)
				go func() { done <- k.Access(space, 1, Write) }()
				var buf [1]plane.Envelope[delivery]
				for ln.ring.PopMany(buf[:]) == 0 {
					runtime.Gosched()
				}
				if buf[0].Time != 5*time.Millisecond {
					t.Errorf("queued envelope stamped %v, want the shard's 5ms", buf[0].Time)
				}
				ln.token.Store(false)
				buf[0].Msg.reply <- nil // a lost delivery: the access re-faults, inline
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			} else if err := k.Access(space, 1, Write); err != nil {
				t.Fatal(err)
			}
			if got, want := sh.Now(), 5*time.Millisecond+perFault; got != want {
				t.Errorf("shard clock %v after one delivery past the bind, want %v", got, want)
			}
		})
	}
}

// TestRevokeDropsTimeShard: revoking a manager drops its shard binding with
// the rest of its record — the kernel used to keep the dead manager and its
// shard in a table nothing ever pruned.
func TestRevokeDropsTimeShard(t *testing.T) {
	for _, mode := range []string{"serial", "concurrent"} {
		t.Run(mode, func(t *testing.T) {
			k, m, space, sh := bootShardTest(t, mode)
			k.SetDefaultManager(newOffsetTestManager(t, k, 8, 8, DeliverSameProcess))
			k.BindTimeShard(m, sh)
			if err := k.Access(space, 0, Write); err != nil {
				t.Fatal(err)
			}
			ticked := sh.Now()
			if ticked == 0 {
				t.Fatal("bound shard did not tick")
			}
			if _, err := k.Revoke(m); err != nil {
				t.Fatal(err)
			}
			if k.TimeShardClock(m) != k.Clock() {
				t.Error("a revoked manager is still bound to its time shard")
			}
			k.mgrMu.Lock()
			_, kept := k.managers[m]
			k.mgrMu.Unlock()
			if kept {
				t.Error("the kernel still holds the revoked manager's record")
			}
			if err := k.Access(space, 1, Write); err != nil {
				t.Fatal(err)
			}
			if got := sh.Now(); got != ticked {
				t.Errorf("dead manager's shard ticked %v -> %v after revocation", ticked, got)
			}
		})
	}
}
