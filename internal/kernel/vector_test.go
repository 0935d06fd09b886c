package kernel

// Tests for vectored fault delivery: batch assembly must be a pure function
// of ring contents (same queued messages => same batch partition and order,
// every time), the vectored upcall must see faults in ring order, and the
// batched charge/crash semantics must match the serial path's contract.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"epcm/internal/plane"
	"epcm/internal/sim"
)

// vecRecorder is a manager that records how faults arrive: one entry per
// upcall, each entry the pages that upcall carried (length 1 for the
// HandleFault path; vectorCalls counts the HandleFaultVector ones). It
// resolves nothing — the tests below own the reply channels directly, so no
// retry loop is waiting on resolution.
type vecRecorder struct {
	batches     [][]int64
	vectorCalls int
	crashAt     int // if >0, report ErrManagerCrashed for batch member crashAt-1 onwards
}

func (m *vecRecorder) ManagerName() string       { return "vec-recorder" }
func (m *vecRecorder) Delivery() DeliveryMode    { return DeliverSameProcess }
func (m *vecRecorder) SegmentDeleted(s *Segment) {}
func (m *vecRecorder) HandleFault(f Fault) error {
	m.batches = append(m.batches, []int64{f.Page})
	return nil
}
func (m *vecRecorder) HandleFaultVector(fs []Fault, errs []error) {
	m.vectorCalls++
	pages := make([]int64, len(fs))
	for i, f := range fs {
		pages[i] = f.Page
		if m.crashAt > 0 && i >= m.crashAt-1 {
			errs[i] = ErrManagerCrashed
		}
	}
	m.batches = append(m.batches, pages)
}

var _ VectorHandler = (*vecRecorder)(nil)

// vecLane builds a concurrent-scheduler lane for m with the combining
// token held by the test, so queued messages sit in the ring until the
// test calls drainCells — the deterministic way to form a batch.
func vecLane(t *testing.T, k *Kernel, m Manager) (*concurrentScheduler, *lane) {
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

// drainBatches queues the pages (with a nil page meaning an interleaved
// exec message), drains the lane, and returns the recorded upcall shape.
func drainBatches(t *testing.T, pages []int64, execAfter map[int]bool) [][]int64 {
	t.Helper()
	k := newTestKernel(t)
	m := &vecRecorder{}
	seg, err := k.CreateSegment("vec-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	s, ln := vecLane(t, k, m)
	var replies []chan error
	for i, p := range pages {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
		if execAfter[i] {
			replies = append(replies, enqueueExec(t, ln, k, m, func() {}))
		}
	}
	s.drainCells(ln)
	ln.token.Store(false)
	for i, ch := range replies {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("message %d answered with %v", i, err)
			}
		default:
			t.Fatalf("message %d never answered", i)
		}
	}
	return m.batches
}

// TestVectoredBatchAssemblyDeterministic: the partition of queued faults
// into vectored upcalls is a function of ring contents alone. Identical
// ring contents must produce identical batch boundaries and identical
// in-batch order, run after run; a non-fault message splits the run
// exactly where it sits in the queue.
func TestVectoredBatchAssemblyDeterministic(t *testing.T) {
	pages := []int64{7, 3, 11, 5, 2, 9, 13, 1}
	want := fmt.Sprint([][]int64{pages})
	for trial := 0; trial < 3; trial++ {
		got := fmt.Sprint(drainBatches(t, pages, nil))
		if got != want {
			t.Fatalf("trial %d: batches %s, want %s", trial, got, want)
		}
	}
	// An exec message after the third fault splits the batch there: the
	// faults before it form one vector, the faults after it another.
	wantSplit := fmt.Sprint([][]int64{{7, 3, 11}, {5, 2, 9, 13, 1}})
	for trial := 0; trial < 3; trial++ {
		got := fmt.Sprint(drainBatches(t, pages, map[int]bool{2: true}))
		if got != wantSplit {
			t.Fatalf("split trial %d: batches %s, want %s", trial, got, wantSplit)
		}
	}
}

// TestVectorBatchCap: one upcall carries at most what one PopMany hands
// the executor — laneDrainBatch faults — so a longer queue splits there.
func TestVectorBatchCap(t *testing.T) {
	pages := make([]int64, laneDrainBatch+3)
	for i := range pages {
		pages[i] = int64(i)
	}
	got := fmt.Sprint(drainBatches(t, pages, nil))
	want := fmt.Sprint([][]int64{pages[:laneDrainBatch], pages[laneDrainBatch:]})
	if got != want {
		t.Fatalf("batches %s, want a split at laneDrainBatch: %s", got, want)
	}
}

// TestVectoredBatchCharges: a batch of n faults pays the per-delivery legs
// once — one ManagerCalls, one vectored batch — while the per-fault side
// (Faults, the kind counters) still ticks n times, and the virtual clock
// advances by exactly one delivery plus nothing per extra fault (the
// recorder resolves without kernel calls).
func TestVectoredBatchCharges(t *testing.T) {
	k := newTestKernel(t)
	m := &vecRecorder{}
	seg, err := k.CreateSegment("vec-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	s, ln := vecLane(t, k, m)
	const n = 6
	var replies []chan error
	for p := int64(0); p < n; p++ {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
	}
	before := k.Clock().Now()
	s.drainCells(ln)
	ln.token.Store(false)
	for _, ch := range replies {
		<-ch
	}
	st := k.Stats()
	if st.ManagerCalls != 1 {
		t.Fatalf("ManagerCalls = %d, want 1 for one vectored upcall", st.ManagerCalls)
	}
	if st.Faults != n || st.MissingFaults != n {
		t.Fatalf("Faults/MissingFaults = %d/%d, want %d/%d", st.Faults, st.MissingFaults, n, n)
	}
	if st.VectoredBatches != 1 || st.VectoredFaults != n {
		t.Fatalf("VectoredBatches/VectoredFaults = %d/%d, want 1/%d", st.VectoredBatches, st.VectoredFaults, n)
	}
	// One trap + one same-process delivery + one return for the whole
	// batch: the clock moved by exactly the single-fault delivery cost.
	cost := k.Cost()
	wantAdv := cost.Trap + cost.Upcall + cost.ResumeDirect
	if adv := k.Clock().Now() - before; adv != wantAdv {
		t.Fatalf("clock advanced %v for a %d-fault batch, want the single-delivery %v", adv, n, wantAdv)
	}
}

// TestVectoredMidBatchCrash: when the manager dies partway through a
// vector, every fault in the batch — handled or not — is answered as a
// lost delivery (nil) after revocation, so posters retry against the
// adopter; none errors out and none is left unanswered.
func TestVectoredMidBatchCrash(t *testing.T) {
	k := newTestKernel(t)
	m := &vecRecorder{crashAt: 3}
	fallback := &vecRecorder{}
	k.SetDefaultManager(fallback)
	seg, err := k.CreateSegment("vec-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	s, ln := vecLane(t, k, m)
	var replies []chan error
	for p := int64(0); p < 5; p++ {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
	}
	s.drainCells(ln)
	ln.token.Store(false)
	for i, ch := range replies {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("fault %d answered %v, want nil lost-delivery", i, err)
			}
		default:
			t.Fatalf("fault %d never answered", i)
		}
	}
	if got := seg.Manager(); got != Manager(fallback) {
		t.Fatalf("segment managed by %v after crash, want fallback", got)
	}
	if k.Stats().Revocations == 0 {
		t.Fatal("crash recorded no revocation")
	}
}

// TestVectoredInterceptorPerFault: injection still sees every fault of a
// batch individually — a drop answers just that fault, a delay charges
// just once per delayed fault, and the rest of the batch is delivered.
func TestVectoredInterceptorPerFault(t *testing.T) {
	k := newTestKernel(t)
	m := &vecRecorder{}
	seg, err := k.CreateSegment("vec-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	k.SetInterceptor(func(f Fault, _ Manager) InterceptResult {
		switch f.Page {
		case 1:
			return InterceptResult{Drop: true}
		case 3:
			return InterceptResult{Delay: 5 * time.Millisecond}
		}
		return InterceptResult{}
	})
	s, ln := vecLane(t, k, m)
	var replies []chan error
	for p := int64(0); p < 5; p++ {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
	}
	s.drainCells(ln)
	ln.token.Store(false)
	for i, ch := range replies {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("fault %d answered %v", i, err)
			}
		default:
			t.Fatalf("fault %d never answered", i)
		}
	}
	want := fmt.Sprint([][]int64{{0, 2, 3, 4}})
	if got := fmt.Sprint(m.batches); got != want {
		t.Fatalf("delivered %s, want %s (page 1 dropped before the upcall)", got, want)
	}
	st := k.Stats()
	if st.DroppedDeliveries != 1 || st.DelayedDeliveries != 1 {
		t.Fatalf("dropped/delayed = %d/%d, want 1/1", st.DroppedDeliveries, st.DelayedDeliveries)
	}
}

// TestFaultRunLenPure: run assembly never looks past the first non-fault
// message, and a non-fault head is no run at all.
func TestFaultRunLenPure(t *testing.T) {
	mkEnvs := func(kinds ...deliveryKind) []plane.Envelope[delivery] {
		envs := make([]plane.Envelope[delivery], len(kinds))
		for i, kd := range kinds {
			envs[i].Msg = delivery{kind: kd}
		}
		return envs
	}
	cases := []struct {
		kinds []deliveryKind
		want  int
	}{
		{[]deliveryKind{msgFault, msgFault, msgFault}, 3},
		{[]deliveryKind{msgFault, msgFault, msgDelete, msgFault}, 2},
		{[]deliveryKind{msgDelete, msgFault, msgFault}, 0},
		{[]deliveryKind{msgExec}, 0},
		{[]deliveryKind{msgFault}, 1},
	}
	for i, c := range cases {
		for trial := 0; trial < 3; trial++ {
			if got := faultRunLen(mkEnvs(c.kinds...)); got != c.want {
				t.Fatalf("case %d trial %d: run %d, want %d", i, trial, got, c.want)
			}
		}
	}
}

// TestRunOfOneMatchesSerial: a run of one charges, counts and replies
// exactly as the serial scheduler's delivery of the same fault does —
// Trap, delivery, return, ManagerCalls, and each interceptor verdict —
// whether the lane drains it off its ring or handles it inline, and the
// vectored counters stay zero for it.
func TestRunOfOneMatchesSerial(t *testing.T) {
	cost := sim.DECstation5000()
	const delay = 5 * time.Millisecond
	cases := []struct {
		name      string
		verdict   InterceptResult
		wantClock time.Duration
		handled   bool
	}{
		{"plain", InterceptResult{}, cost.Trap + cost.Upcall + cost.ResumeDirect, true},
		{"drop", InterceptResult{Drop: true}, cost.Trap, false},
		{"delay", InterceptResult{Delay: delay}, cost.Trap + delay + cost.Upcall + cost.ResumeDirect, true},
		{"crash", InterceptResult{Crash: true}, cost.Trap, false},
	}
	type outcome struct {
		clock   time.Duration
		stats   Stats
		handled bool
		err     error
	}
	for _, tc := range cases {
		deliver := func(how string) outcome {
			k := newTestKernel(t)
			m := &vecRecorder{}
			k.SetDefaultManager(&vecRecorder{})
			seg, err := k.CreateSegment("one", 1)
			if err != nil {
				t.Fatal(err)
			}
			k.SetSegmentManager(seg, m)
			k.SetInterceptor(func(Fault, Manager) InterceptResult { return tc.verdict })
			f := Fault{Seg: seg, Page: 4, Kind: FaultMissing, Access: Read}
			var o outcome
			before := k.Clock().Now()
			switch how {
			case "serial":
				o.err = k.Scheduler().deliverFault(k.cellOf(m), f)
			case "inline":
				k.SetScheduler(NewConcurrentScheduler(k))
				t.Cleanup(k.Scheduler().Stop)
				o.err = k.Scheduler().deliverFault(k.cellOf(m), f)
			case "drained":
				s, ln := vecLane(t, k, m)
				reply := enqueueFault(t, ln, m, seg, f.Page)
				s.drainCells(ln)
				ln.token.Store(false)
				o.err = <-reply
			}
			o.clock = k.Clock().Now() - before
			o.stats = k.Stats()
			o.handled = len(m.batches) == 1 && m.vectorCalls == 0
			return o
		}
		want := deliver("serial")
		if want.clock != tc.wantClock || want.handled != tc.handled || want.err != nil ||
			want.stats.ManagerCalls != 1 || want.stats.Faults != 1 || want.stats.MissingFaults != 1 {
			t.Fatalf("%s: serial delivery = %+v, want clock %v handled %v", tc.name, want, tc.wantClock, tc.handled)
		}
		for _, how := range []string{"inline", "drained"} {
			got := deliver(how)
			if got != want {
				t.Errorf("%s/%s: %+v, want the serial delivery's %+v", tc.name, how, got, want)
			}
			if got.stats.VectoredBatches != 0 || got.stats.VectoredFaults != 0 {
				t.Errorf("%s/%s: vectored counters ticked for a run of one", tc.name, how)
			}
		}
	}
}

// TestVectorHandlerErrorsWrapPerFault: a handler error for one member of a
// batch surfaces as ErrManagerFailed on that fault's reply alone; its
// batchmates still succeed.
func TestVectorHandlerErrorsWrapPerFault(t *testing.T) {
	k := newTestKernel(t)
	m := &vecFailOne{failPage: 2}
	seg, err := k.CreateSegment("vec-data", 1)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSegmentManager(seg, m)
	s, ln := vecLane(t, k, m)
	var replies []chan error
	for p := int64(0); p < 4; p++ {
		replies = append(replies, enqueueFault(t, ln, m, seg, p))
	}
	s.drainCells(ln)
	ln.token.Store(false)
	for i, ch := range replies {
		err := <-ch
		if int64(i) == m.failPage {
			if !errors.Is(err, ErrManagerFailed) {
				t.Fatalf("fault %d answered %v, want ErrManagerFailed", i, err)
			}
		} else if err != nil {
			t.Fatalf("fault %d answered %v, want nil", i, err)
		}
	}
}

type vecFailOne struct {
	failPage int64
}

func (m *vecFailOne) ManagerName() string       { return "vec-fail-one" }
func (m *vecFailOne) Delivery() DeliveryMode    { return DeliverSameProcess }
func (m *vecFailOne) SegmentDeleted(s *Segment) {}
func (m *vecFailOne) HandleFault(f Fault) error { return nil }
func (m *vecFailOne) HandleFaultVector(fs []Fault, errs []error) {
	for i, f := range fs {
		if f.Page == m.failPage {
			errs[i] = errors.New("injected per-fault failure")
		}
	}
}
