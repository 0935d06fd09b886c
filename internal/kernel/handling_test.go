package kernel

// Tests for the delivery path on a concurrent kernel: deliveries to one
// manager are serialized by the mutex on its record, and a delivery that
// waited for that mutex is charged, counted and answered exactly as a
// serial delivery of the same fault.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"epcm/internal/sim"
)

// recorder is a manager that logs the page of every fault it is handed, one
// entry per upcall. It resolves nothing — the tests below deliver straight
// through deliverFault, so no retry loop is waiting on resolution — and
// fails the fault on failPage, if set.
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

// waitInEnter blocks until n goroutines are inside managerCell.enter — each
// has resolved its manager's record and is waiting for, or about to wait
// for, its handling mutex. It reads every goroutine's stack, so the test
// calling it must not run in parallel with another delivering one.
func waitInEnter(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		got := bytes.Count(buf[:runtime.Stack(buf, true)], []byte("(*managerCell).enter("))
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d deliveries reached the manager's mutex", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// deliverWaiting puts k on the concurrent scheduler, takes m's handling
// mutex, and delivers each fault from a goroutine of its own. Once every
// delivery waits on the mutex it lets go and returns the answers in fault
// order: the deliveries run one at a time, in whatever order the mutex
// hands it out.
func deliverWaiting(t *testing.T, k *Kernel, m Manager, faults []Fault) []error {
	t.Helper()
	k.SetScheduler(NewConcurrentScheduler(k))
	c := k.cellOf(m)
	c.handling.Lock()
	errs := make([]error, len(faults))
	var wg sync.WaitGroup
	for i, f := range faults {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = k.deliverFault(f)
		}()
	}
	waitInEnter(t, len(faults))
	c.handling.Unlock()
	wg.Wait()
	return errs
}

// missing returns one read fault on seg per page.
func missing(seg *Segment, pages ...int64) []Fault {
	fs := make([]Fault, len(pages))
	for i, p := range pages {
		fs[i] = Fault{Seg: seg, Page: p, Kind: FaultMissing, Access: Read}
	}
	return fs
}

// TestVectoredBatchCharges: faults that waited for their manager are
// charged one delivery each. n waiting faults cost n ManagerCalls and n
// minimal same-process faults of virtual time (trap, upcall, the handler's
// one migrate, direct resume) — at n = 1 exactly the paper's 107 µs.
func TestVectoredBatchCharges(t *testing.T) {
	cost := sim.DECstation5000()
	for _, n := range []int64{1, 6} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			k := newTestKernel(t)
			m := newTestManager(t, k, 16, DeliverSameProcess)
			seg, err := k.CreateSegment("waiting-data", 1)
			if err != nil {
				t.Fatal(err)
			}
			k.SetSegmentManager(seg, m)
			pages := make([]int64, n)
			for i := range pages {
				pages[i] = int64(i)
			}
			before := k.Clock().Now()
			for i, err := range deliverWaiting(t, k, m, missing(seg, pages...)) {
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

// TestCrashLosesWaitingDeliveries: when the manager dies on the third of
// five faults waiting for it, the fault it died on is answered nil after
// revocation, and the two still waiting are answered nil without reaching
// it — lost deliveries, none an error. Each re-faults to the adopter; the
// two it resolved before dying stay resident.
func TestCrashLosesWaitingDeliveries(t *testing.T) {
	k := newTestKernel(t)
	m := &crashingManager{testManager: newOffsetTestManager(t, k, 100, 8, DeliverSameProcess), crashAt: 3}
	fallback := newOffsetTestManager(t, k, 200, 8, DeliverSameProcess)
	k.SetDefaultManager(fallback)
	seg, err := k.CreateSegment("waiting-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	for i, err := range deliverWaiting(t, k, m, missing(seg, 0, 1, 2, 3, 4)) {
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
	// The adopter handled exactly the three pages the dead manager left
	// unresolved: the one it died on and the two still waiting.
	var resolved, refaulted []int64
	for _, f := range m.faults[:2] {
		resolved = append(resolved, f.Page)
	}
	for _, f := range fallback.faults {
		refaulted = append(refaulted, f.Page)
	}
	slices.Sort(refaulted)
	for p := int64(0); p < 5; p++ {
		if slices.Contains(resolved, p) == slices.Contains(refaulted, p) {
			t.Fatalf("dead manager resolved %v, adopter handled %v: page %d in both or neither", resolved, refaulted, p)
		}
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestRevokeWhileDriverWaits: driver B faults against manager A while A's
// handler, on driver 1, is still running and then reports that A died. The
// revocation runs inside A's handler, which holds A's mutex, so it must not
// take that mutex (this test hangs, then fails, if it does); B, waiting on
// it, must find A revoked, lose its delivery and complete its Access
// through the default manager. A handles nothing after the revoke.
func TestRevokeWhileDriverWaits(t *testing.T) {
	k := newTestKernelWith(Config{Concurrent: true})
	a := &blockingCrasher{
		testManager: newOffsetTestManager(t, k, 100, 8, DeliverSameProcess),
		entered:     make(chan struct{}),
		crash:       make(chan struct{}),
	}
	fallback := newOffsetTestManager(t, k, 200, 8, DeliverSameProcess)
	k.SetDefaultManager(fallback)
	seg, err := k.CreateSegment("shared", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, a)

	done := make(chan error, 2)
	go func() { done <- k.Access(seg, 0, Write) }() // driver 1: A crashes on it
	<-a.entered
	go func() { done <- k.Access(seg, 1, Write) }() // driver B: waits on A's mutex
	waitInEnter(t, 1)
	close(a.crash)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Access: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a driver never returned: revoking from inside the handler deadlocked on the manager's mutex")
		}
	}
	if len(a.faults) != 1 || a.faults[0].Page != 0 {
		t.Fatalf("revoked manager handled %v, want page 0 alone", a.faults)
	}
	var refaulted []int64
	for _, f := range fallback.faults {
		refaulted = append(refaulted, f.Page)
	}
	slices.Sort(refaulted)
	if !slices.Equal(refaulted, []int64{0, 1}) {
		t.Fatalf("default manager handled pages %v, want [0 1]", refaulted)
	}
	if st := k.Stats(); st.Revocations != 1 {
		t.Fatalf("%d revocations, want 1", st.Revocations)
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Fatal(err)
	}
}

// blockingCrasher signals entered on its first fault, holds it until crash
// is closed and then reports that the manager died. It records every fault
// it is handed.
type blockingCrasher struct {
	*testManager
	entered, crash chan struct{}
}

func (m *blockingCrasher) HandleFault(f Fault) error {
	m.faults = append(m.faults, f)
	if len(m.faults) > 1 {
		return errors.New("revoked manager handed a fault")
	}
	close(m.entered)
	<-m.crash
	return ErrManagerCrashed
}

// TestInterceptorPerFault: injection sees every waiting fault on its own —
// a drop answers just that fault, a delay is charged once on the delayed
// fault, and the rest are delivered one upcall each.
func TestInterceptorPerFault(t *testing.T) {
	k := newTestKernel(t)
	m := &recorder{}
	seg, err := k.CreateSegment("waiting-data", 1)
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
	before := k.Clock().Now()
	for i, err := range deliverWaiting(t, k, m, missing(seg, 0, 1, 2, 3, 4)) {
		if err != nil {
			t.Fatalf("fault %d answered %v", i, err)
		}
	}
	slices.Sort(m.pages)
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

// TestRunOfOneMatchesSerial: a fault delivered on a concurrent kernel
// charges, counts and replies exactly as the serial delivery of the same
// fault does — Trap, delivery, return, ManagerCalls, each interceptor
// verdict and a handler error wrapped as ErrManagerFailed — whether it
// found its manager's mutex free or waited for it.
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
				derr = k.deliverFault(f)
			case "free":
				k.SetScheduler(NewConcurrentScheduler(k))
				derr = k.deliverFault(f)
			case "waited":
				derr = deliverWaiting(t, k, m, []Fault{f})[0]
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
		for _, how := range []string{"free", "waited"} {
			if got := deliver(how); got != want {
				t.Errorf("%s/%s: %+v, want the serial delivery's %+v", tc.name, how, got, want)
			}
		}
	}
}
