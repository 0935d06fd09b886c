package faultinject

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/sim"
	"epcm/internal/storage"
)

// stubManager is a kernel.Manager the plane only ever asks for its name.
type stubManager string

func (m stubManager) ManagerName() string              { return string(m) }
func (m stubManager) Delivery() kernel.DeliveryMode    { return kernel.DeliverSeparateProcess }
func (m stubManager) HandleFault(kernel.Fault) error   { return nil }
func (m stubManager) SegmentDeleted(s *kernel.Segment) {}

// script drives every hook of a plane through a fixed call sequence,
// advancing the virtual clock between calls so log stamps differ.
func script(p *Plane, clock *sim.Clock) {
	for i := int64(0); i < 200; i++ {
		clock.Advance(time.Microsecond)
		p.StorageFault(storage.OpFetch, "swap", i)
		p.StorageFault(storage.OpStore, "swap", i)
		p.Intercept(kernel.Fault{Page: i}, stubManager("victim"))
		p.Intercept(kernel.Fault{Page: i}, stubManager("bystander"))
		p.GrantGate(int(i%7) + 1)
	}
}

var everything = Plan{
	Seed:              0xc4a05,
	FetchErrorProb:    0.1,
	StoreErrorProb:    0.2,
	TornWriteProb:     0.5,
	DropDeliveryProb:  0.05,
	DelayDeliveryProb: 0.1,
	DeliveryDelay:     3 * time.Millisecond,
	ExhaustEvery:      16,
	ExhaustLen:        2,
	CrashManager:      "victim",
	CrashAtFault:      50,
}

// Same plan, seed and call script: the same injections at the same virtual
// times, twice; a different seed draws a different schedule.
func TestReplayDeterminism(t *testing.T) {
	replay := func(plan Plan) ([]string, Summary) {
		var clock sim.Clock
		p := New(plan, &clock)
		script(p, &clock)
		return p.EventLog(), p.Summary()
	}
	log1, sum1 := replay(everything)
	log2, sum2 := replay(everything)
	if !reflect.DeepEqual(log1, log2) || sum1 != sum2 {
		t.Fatalf("replay diverged:\n%v\n%v", sum1, sum2)
	}
	if int64(len(log1)) != sum1.Total || sum1.Total == 0 {
		t.Fatalf("%d log lines for %d injections", len(log1), sum1.Total)
	}
	for _, n := range []int64{sum1.FetchErrors, sum1.StoreErrors, sum1.TornWrites, sum1.DroppedDeliveries,
		sum1.DelayedDeliveries, sum1.RefusedGrants, sum1.ManagerCrashes} {
		if n == 0 {
			t.Fatalf("the script left an injection kind unexercised: %v", sum1)
		}
	}
	other := everything
	other.Seed++
	if log3, _ := replay(other); reflect.DeepEqual(log1, log3) {
		t.Fatal("a different seed replayed the same log")
	}
	// The log is a copy: scribbling on it must not reach the plane.
	var clock sim.Clock
	p := New(everything, &clock)
	script(p, &clock)
	p.EventLog()[0] = "scribble"
	if p.EventLog()[0] == "scribble" {
		t.Fatal("EventLog returned the plane's own slice")
	}
}

// kindCase drives one injected kind at probability 1 and names the counter
// it must move.
type kindCase struct {
	name    string
	plan    Plan
	call    func(p *Plane) (injected bool)
	counter func(Summary) int64
}

var kinds = []kindCase{
	{
		name: "fetch error, transient",
		plan: Plan{FetchErrorProb: 1, TransientStorage: true},
		call: func(p *Plane) bool {
			inj := p.StorageFault(storage.OpFetch, "f", 3)
			return inj != nil && !inj.Torn && errors.Is(inj.Err, storage.ErrInjected) &&
				errors.Is(inj.Err, storage.ErrTransient)
		},
		counter: func(s Summary) int64 { return s.FetchErrors },
	},
	{
		name: "store error, permanent",
		plan: Plan{StoreErrorProb: 1},
		call: func(p *Plane) bool {
			inj := p.StorageFault(storage.OpStore, "f", 3)
			return inj != nil && !inj.Torn && errors.Is(inj.Err, storage.ErrInjected) &&
				!errors.Is(inj.Err, storage.ErrTransient) && !errors.Is(inj.Err, storage.ErrTornWrite)
		},
		counter: func(s Summary) int64 { return s.StoreErrors },
	},
	{
		name: "torn write",
		plan: Plan{StoreErrorProb: 1, TornWriteProb: 1},
		call: func(p *Plane) bool {
			inj := p.StorageFault(storage.OpStore, "f", 3)
			return inj != nil && inj.Torn && errors.Is(inj.Err, storage.ErrTornWrite) &&
				errors.Is(inj.Err, storage.ErrInjected)
		},
		counter: func(s Summary) int64 { return s.TornWrites },
	},
	{
		name: "dropped delivery",
		plan: Plan{DropDeliveryProb: 1},
		call: func(p *Plane) bool {
			return p.Intercept(kernel.Fault{}, stubManager("m")) == kernel.InterceptResult{Drop: true}
		},
		counter: func(s Summary) int64 { return s.DroppedDeliveries },
	},
	{
		name: "delayed delivery",
		plan: Plan{DelayDeliveryProb: 1, DeliveryDelay: time.Millisecond},
		call: func(p *Plane) bool {
			return p.Intercept(kernel.Fault{}, stubManager("m")) == kernel.InterceptResult{Delay: time.Millisecond}
		},
		counter: func(s Summary) int64 { return s.DelayedDeliveries },
	},
	{
		name:    "refused grant",
		plan:    Plan{ExhaustEvery: 1},
		call:    func(p *Plane) bool { return !p.GrantGate(4) },
		counter: func(s Summary) int64 { return s.RefusedGrants },
	},
}

// Each kind, alone: an armed plane injects it and counts it, MaxInjections
// cuts it off, and a disarmed plane injects nothing until re-armed.
func TestInjectedKinds(t *testing.T) {
	for _, c := range kinds {
		t.Run(c.name, func(t *testing.T) {
			plan := c.plan
			plan.MaxInjections = 3
			var clock sim.Clock
			p := New(plan, &clock)

			p.Disarm()
			if c.call(p) || p.Summary().Total != 0 {
				t.Fatalf("disarmed plane injected: %v", p.Summary())
			}
			p.Arm()
			for i := 0; i < 3; i++ {
				if !c.call(p) {
					t.Fatalf("armed call %d did not inject as planned", i)
				}
			}
			if c.call(p) {
				t.Fatal("injected past MaxInjections")
			}
			sum := p.Summary()
			if c.counter(sum) != 3 || sum.Total != 3 || len(p.EventLog()) != 3 {
				t.Fatalf("want 3 injections counted and logged, got %v with %d log lines", sum, len(p.EventLog()))
			}
			// A torn write is also a store error; nothing else is double-counted.
			if c.name == "torn write" && sum.StoreErrors != 3 {
				t.Errorf("torn writes not counted as store errors: %v", sum)
			}
			if !strings.HasPrefix(sum.String(), "chaos: 3 injections") {
				t.Errorf("Summary.String() = %q", sum.String())
			}
		})
	}
}

// The zero Plan injects nothing however it is called.
func TestZeroPlanInjectsNothing(t *testing.T) {
	var clock sim.Clock
	p := New(Plan{}, &clock)
	script(p, &clock)
	if sum := p.Summary(); sum != (Summary{}) || len(p.EventLog()) != 0 {
		t.Fatalf("zero plan injected: %v", sum)
	}
}

// An exhaustion window refuses ExhaustLen requests starting at every
// ExhaustEvery-th, and grants the rest.
func TestGrantGateWindow(t *testing.T) {
	var clock sim.Clock
	p := New(Plan{ExhaustEvery: 4, ExhaustLen: 2}, &clock)
	var got []bool
	for i := 0; i < 10; i++ {
		got = append(got, p.GrantGate(1))
	}
	want := []bool{true, true, true, false, false, true, true, false, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grants %v, want %v", got, want)
	}
}

// The named manager crashes on the delivery after CrashAtFault, stays dead
// — even for a disarmed plane, so every segment still pointing at it is
// revoked — and no other manager is touched.
func TestManagerCrash(t *testing.T) {
	var clock sim.Clock
	p := New(Plan{CrashManager: "victim", CrashAtFault: 2}, &clock)
	victim, bystander := stubManager("victim"), stubManager("bystander")
	// Deliveries a disarmed plane sees are not counted toward CrashAtFault.
	p.Disarm()
	for i := 0; i < 5; i++ {
		if r := p.Intercept(kernel.Fault{}, victim); r != (kernel.InterceptResult{}) {
			t.Fatalf("disarmed plane: %+v", r)
		}
	}
	p.Arm()
	for i := 0; i < 2; i++ {
		if r := p.Intercept(kernel.Fault{}, victim); r != (kernel.InterceptResult{}) {
			t.Fatalf("delivery %d: %+v before CrashAtFault", i, r)
		}
	}
	if p.Crashed("victim") {
		t.Fatal("Crashed before the crash")
	}
	if r := p.Intercept(kernel.Fault{}, victim); !r.Crash {
		t.Fatalf("delivery 3: %+v, want a crash", r)
	}
	if !p.Crashed("victim") || p.Crashed("bystander") {
		t.Fatalf("Crashed(victim)=%v Crashed(bystander)=%v", p.Crashed("victim"), p.Crashed("bystander"))
	}
	p.Disarm()
	if r := p.Intercept(kernel.Fault{}, victim); !r.Crash {
		t.Fatal("a crashed manager came back to life on a disarmed plane")
	}
	if r := p.Intercept(kernel.Fault{}, bystander); r != (kernel.InterceptResult{}) {
		t.Fatalf("bystander: %+v", r)
	}
	if sum := p.Summary(); sum.ManagerCrashes != 1 || sum.Total != 1 {
		t.Fatalf("one crash is one injection, got %v", sum)
	}

	// A spent budget spares the manager.
	spent := New(Plan{CrashManager: "victim", ExhaustEvery: 1, MaxInjections: 1}, &clock)
	if spent.GrantGate(1) {
		t.Fatal("the one budgeted injection did not happen")
	}
	for i := 0; i < 5; i++ {
		if r := spent.Intercept(kernel.Fault{}, victim); r.Crash {
			t.Fatal("crashed past MaxInjections")
		}
	}
	if spent.Crashed("victim") {
		t.Fatal("Crashed past MaxInjections")
	}
}
