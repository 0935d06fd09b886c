package kernel

// Tests for the concurrent scheduler's lane drain: faults queued on a lane
// are delivered one per upcall, in ring order, and each is charged, counted
// and answered exactly as a serial delivery of the same fault.

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"epcm/internal/sim"
)

// recorder is a manager that logs the page of every fault it is handed, one
// entry per upcall. It resolves nothing — the tests below own the reply
// channels directly, so no retry loop is waiting on resolution — and fails
// the fault on failPage, if set.
type recorder struct {
	pages    []int64
	failPage int64
}

var errRecorderFails = errors.New("injected handler failure")

func (m *recorder) ManagerName() string       { return "recorder" }
func (m *recorder) Delivery() DeliveryMode    { return DeliverSameProcess }
func (m *recorder) SegmentDeleted(s *Segment) {}
func (m *recorder) HandleFault(f Fault) error {
	m.pages = append(m.pages, f.Page)
	if m.failPage > 0 && f.Page == m.failPage {
		return errRecorderFails
	}
	return nil
}

// heldLane builds a concurrent-scheduler lane for m with the combining
// token held by the test, so queued messages sit in the ring until the
// test calls drainCells.
func heldLane(t *testing.T, k *Kernel, m Manager) (*concurrentScheduler, *lane) {
	t.Helper()
	k.SetScheduler(NewConcurrentScheduler(k))
	t.Cleanup(k.Scheduler().Stop)
	s := k.Scheduler().(*concurrentScheduler)
	ln := s.laneOf(k.cellOf(m))
	ln.token.Store(true)
	return s, ln
}

// enqueueFault posts one fault message straight onto the lane ring (the
// shape post() produces on its slow path) and returns its reply channel.
func enqueueFault(t *testing.T, ln *lane, m Manager, seg *Segment, page int64) chan error {
	t.Helper()
	reply := make(chan error, 1)
	c := seg.kernel.cellOf(m)
	d := delivery{kind: msgFault, cell: c, fault: Fault{Seg: seg, Page: page, Kind: FaultMissing, Access: Read}, reply: reply}
	if !ln.ring.Put(seg.kernel.clock.Now(), d) {
		t.Fatal("ring rejected enqueue")
	}
	return reply
}

func enqueueExec(t *testing.T, ln *lane, k *Kernel, m Manager, fn func()) chan error {
	t.Helper()
	reply := make(chan error, 1)
	c := k.cellOf(m)
	if !ln.ring.Put(k.clock.Now(), delivery{kind: msgExec, cell: c, fn: fn, reply: reply}) {
		t.Fatal("ring rejected enqueue")
	}
	return reply
}

// drainAnswered drains the lane, releases the token and returns every
// reply, failing the test for a message left unanswered.
func drainAnswered(t *testing.T, s *concurrentScheduler, ln *lane, replies []chan error) []error {
	t.Helper()
	s.drainCells(ln)
	ln.token.Store(false)
	errs := make([]error, len(replies))
	for i, ch := range replies {
		select {
		case errs[i] = <-ch:
		default:
			t.Fatalf("message %d never answered", i)
		}
	}
	return errs
}

// TestVectorBatchCap: the executor pops at most laneDrainBatch messages at
// a time. A longer queue — here with an exec message queued after the
// third fault — is drained over several pops: every message is answered,
// and the manager is handed one fault per upcall, in ring order, with the
// exec run exactly where it sat in the queue.
func TestVectorBatchCap(t *testing.T) {
	k := newTestKernel(t)
	m := &recorder{}
	seg, err := k.CreateSegment("drain-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	s, ln := heldLane(t, k, m)
	pages := make([]int64, laneDrainBatch+3)
	for i := range pages {
		pages[i] = int64(len(pages) - i) // descending: ring order, not page order
	}
	var replies []chan error
	for i, p := range pages {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
		if i == 2 {
			replies = append(replies, enqueueExec(t, ln, k, m, func() { m.pages = append(m.pages, -1) }))
		}
	}
	for i, err := range drainAnswered(t, s, ln, replies) {
		if err != nil {
			t.Fatalf("message %d answered %v", i, err)
		}
	}
	want := slices.Concat(pages[:3], []int64{-1}, pages[3:])
	if !slices.Equal(m.pages, want) {
		t.Fatalf("handled %v, want %v", m.pages, want)
	}
	if st := k.Stats(); st.ManagerCalls != int64(len(pages)) || st.Faults != int64(len(pages)) {
		t.Fatalf("ManagerCalls/Faults = %d/%d, want one upcall per fault (%d)", st.ManagerCalls, st.Faults, len(pages))
	}
}

// TestVectoredBatchCharges: faults queued on a lane are charged one
// delivery each. A drained queue of n faults costs n ManagerCalls and n
// minimal same-process faults of virtual time (trap, upcall, the handler's
// one migrate, direct resume) — at n = 1 exactly the paper's 107 µs.
func TestVectoredBatchCharges(t *testing.T) {
	cost := sim.DECstation5000()
	for _, n := range []int64{1, 6} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			k := newTestKernel(t)
			m := newTestManager(t, k, 16, DeliverSameProcess)
			seg, err := k.CreateSegment("drain-data", 1)
			if err != nil {
				t.Fatal(err)
			}
			k.SetSegmentManager(seg, m)
			s, ln := heldLane(t, k, m)
			var replies []chan error
			for p := int64(0); p < n; p++ {
				replies = append(replies, enqueueFault(t, ln, m, seg, p))
			}
			before := k.Clock().Now()
			for i, err := range drainAnswered(t, s, ln, replies) {
				if err != nil || !seg.HasPage(int64(i)) {
					t.Fatalf("fault %d answered %v, resident %v", i, err, seg.HasPage(int64(i)))
				}
			}
			st := k.Stats()
			if st.ManagerCalls != n || st.Faults != n || st.MissingFaults != n || int64(len(m.faults)) != n {
				t.Fatalf("ManagerCalls/Faults/MissingFaults/handled = %d/%d/%d/%d, want %d each",
					st.ManagerCalls, st.Faults, st.MissingFaults, len(m.faults), n)
			}
			want := time.Duration(n) * cost.VppMinimalFaultSameProcess()
			if adv := k.Clock().Now() - before; adv != want {
				t.Fatalf("clock advanced %v for %d faults, want %v", adv, n, want)
			}
		})
	}
}

// crashingManager is a testManager whose crashAt-th fault reports that the
// manager died while handling it.
type crashingManager struct {
	*testManager
	crashAt int
}

func (m *crashingManager) HandleFault(f Fault) error {
	if len(m.faults)+1 == m.crashAt {
		m.faults = append(m.faults, f)
		return ErrManagerCrashed
	}
	return m.testManager.HandleFault(f)
}

// TestVectoredMidBatchCrash: when the manager dies on the third of five
// faults queued on its lane, the fault it died on is answered nil after
// revocation, and the two queued behind it are answered nil without
// reaching it — lost deliveries, none an error and none unanswered. Each
// re-faults to the adopter; the two it resolved before dying stay resident.
func TestVectoredMidBatchCrash(t *testing.T) {
	k := newTestKernel(t)
	m := &crashingManager{testManager: newOffsetTestManager(t, k, 100, 8, DeliverSameProcess), crashAt: 3}
	fallback := newOffsetTestManager(t, k, 200, 8, DeliverSameProcess)
	k.SetDefaultManager(fallback)
	seg, err := k.CreateSegment("drain-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	s, ln := heldLane(t, k, m)
	var replies []chan error
	for p := int64(0); p < 5; p++ {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
	}
	for i, err := range drainAnswered(t, s, ln, replies) {
		if err != nil {
			t.Fatalf("fault %d answered %v, want nil lost-delivery", i, err)
		}
	}
	if len(m.faults) != 3 {
		t.Fatalf("crashed manager handled %d faults, want 3 (none after its crash)", len(m.faults))
	}
	if got := seg.Manager(); got != Manager(fallback) {
		t.Fatalf("segment managed by %v after crash, want fallback", got)
	}
	if k.Stats().Revocations != 1 {
		t.Fatalf("%d revocations, want 1", k.Stats().Revocations)
	}
	for p := int64(0); p < 5; p++ {
		if err := k.Access(seg, p, Read); err != nil {
			t.Fatalf("page %d after adoption: %v", p, err)
		}
	}
	var refaulted []int64
	for _, f := range fallback.faults {
		refaulted = append(refaulted, f.Page)
	}
	if want := []int64{2, 3, 4}; !slices.Equal(refaulted, want) {
		t.Fatalf("adopter handled pages %v, want %v", refaulted, want)
	}
}

// TestVectoredInterceptorPerFault: injection sees every queued fault on its
// own — a drop answers just that fault, a delay is charged once on the
// delayed fault, and the rest are delivered one upcall each.
func TestVectoredInterceptorPerFault(t *testing.T) {
	k := newTestKernel(t)
	m := &recorder{}
	seg, err := k.CreateSegment("drain-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	const delay = 5 * time.Millisecond
	k.SetInterceptor(func(f Fault, _ Manager) InterceptResult {
		switch f.Page {
		case 1:
			return InterceptResult{Drop: true}
		case 3:
			return InterceptResult{Delay: delay}
		}
		return InterceptResult{}
	})
	s, ln := heldLane(t, k, m)
	var replies []chan error
	for p := int64(0); p < 5; p++ {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
	}
	before := k.Clock().Now()
	for i, err := range drainAnswered(t, s, ln, replies) {
		if err != nil {
			t.Fatalf("fault %d answered %v", i, err)
		}
	}
	if want := []int64{0, 2, 3, 4}; !slices.Equal(m.pages, want) {
		t.Fatalf("delivered %v, want %v (page 1 dropped before the upcall)", m.pages, want)
	}
	st := k.Stats()
	if st.DroppedDeliveries != 1 || st.DelayedDeliveries != 1 || st.ManagerCalls != 5 {
		t.Fatalf("dropped/delayed/ManagerCalls = %d/%d/%d, want 1/1/5", st.DroppedDeliveries, st.DelayedDeliveries, st.ManagerCalls)
	}
	cost := k.Cost()
	want := 5*cost.Trap + 4*(cost.Upcall+cost.ResumeDirect) + delay
	if adv := k.Clock().Now() - before; adv != want {
		t.Fatalf("clock advanced %v, want %v", adv, want)
	}
}

// TestRunOfOneMatchesSerial: a fault delivered off a lane's ring charges,
// counts and replies exactly as the serial scheduler's delivery of the same
// fault does — Trap, delivery, return, ManagerCalls, each interceptor
// verdict and a handler error wrapped as ErrManagerFailed — and so does one
// the concurrent scheduler handles inline.
func TestRunOfOneMatchesSerial(t *testing.T) {
	cost := sim.DECstation5000()
	const delay = 5 * time.Millisecond
	cases := []struct {
		name      string
		verdict   InterceptResult
		fail      bool
		wantClock time.Duration
		handled   bool
	}{
		{"plain", InterceptResult{}, false, cost.Trap + cost.Upcall + cost.ResumeDirect, true},
		{"drop", InterceptResult{Drop: true}, false, cost.Trap, false},
		{"delay", InterceptResult{Delay: delay}, false, cost.Trap + delay + cost.Upcall + cost.ResumeDirect, true},
		{"crash", InterceptResult{Crash: true}, false, cost.Trap, false},
		{"fail", InterceptResult{}, true, cost.Trap + cost.Upcall, true},
	}
	type outcome struct {
		clock   time.Duration
		stats   Stats
		handled bool
		err     string
	}
	for _, tc := range cases {
		deliver := func(how string) outcome {
			k := newTestKernel(t)
			m := &recorder{}
			if tc.fail {
				m.failPage = 4
			}
			k.SetDefaultManager(&recorder{})
			seg, err := k.CreateSegment("one", 1)
			if err != nil {
				t.Fatal(err)
			}
			k.SetSegmentManager(seg, m)
			k.SetInterceptor(func(Fault, Manager) InterceptResult { return tc.verdict })
			f := Fault{Seg: seg, Page: 4, Kind: FaultMissing, Access: Read}
			var o outcome
			var derr error
			before := k.Clock().Now()
			switch how {
			case "serial":
				derr = k.Scheduler().deliverFault(k.cellOf(m), f)
			case "inline":
				k.SetScheduler(NewConcurrentScheduler(k))
				t.Cleanup(k.Scheduler().Stop)
				derr = k.Scheduler().deliverFault(k.cellOf(m), f)
			case "drained":
				s, ln := heldLane(t, k, m)
				derr = drainAnswered(t, s, ln, []chan error{enqueueFault(t, ln, m, seg, f.Page)})[0]
			}
			o.clock = k.Clock().Now() - before
			o.stats = k.Stats()
			o.handled = len(m.pages) == 1
			if derr != nil {
				o.err = derr.Error()
			}
			if tc.fail != errors.Is(derr, ErrManagerFailed) || tc.fail != errors.Is(derr, errRecorderFails) {
				t.Errorf("%s/%s: delivery returned %v", tc.name, how, derr)
			}
			return o
		}
		want := deliver("serial")
		if want.clock != tc.wantClock || want.handled != tc.handled ||
			want.stats.ManagerCalls != 1 || want.stats.Faults != 1 || want.stats.MissingFaults != 1 {
			t.Fatalf("%s: serial delivery = %+v, want clock %v handled %v", tc.name, want, tc.wantClock, tc.handled)
		}
		for _, how := range []string{"inline", "drained"} {
			if got := deliver(how); got != want {
				t.Errorf("%s/%s: %+v, want the serial delivery's %+v", tc.name, how, got, want)
			}
		}
	}
}
