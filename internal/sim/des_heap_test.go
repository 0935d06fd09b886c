package sim

import (
	"math/rand"
	"testing"
	"time"
)

func (q *eventQueue) len() int { return q.n + len(q.heap) }

// checkQueue fails the test unless q's lane is a power-of-two ring holding n
// events in ascending (at, seq) order with every slot outside the live
// window zeroed (a popped event must not keep its callback reachable), and
// the heap's high-water mark covers its length.
func checkQueue(t *testing.T, q *eventQueue) {
	t.Helper()
	size := len(q.lane)
	if size&(size-1) != 0 || q.n > size || (size > 0 && uint(q.head) >= uint(size)) || (size == 0 && q.head != 0) {
		t.Fatalf("lane ring broken: len %d head %d n %d", size, q.head, q.n)
	}
	for i := 0; i < size; i++ {
		ev := &q.lane[(q.head+i)&(size-1)]
		switch {
		case i >= q.n && (ev.at != 0 || ev.seq != 0 || ev.fn != nil):
			t.Fatalf("dead lane slot %d holds (%v,%d)", i, ev.at, ev.seq)
		case i > 0 && i < q.n && !q.lane[(q.head+i-1)&(size-1)].before(ev):
			t.Fatalf("lane out of order at %d: (%v,%d)", i, ev.at, ev.seq)
		}
	}
	if len(q.heap) > q.heapHigh {
		t.Fatalf("heap holds %d, high-water says %d", len(q.heap), q.heapHigh)
	}
}

// TestEventHeapOrdering pushes events in random order and checks they pop
// in (at, seq) order — the property the simulator's determinism rests on.
func TestEventHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1992))
	for trial := 0; trial < 50; trial++ {
		var q eventQueue
		n := rng.Intn(300) + 1
		for seq := int64(0); seq < int64(n); seq++ {
			// Duplicate timestamps are common (Wake schedules at "now"), so
			// draw from a small range to force seq tie-breaks.
			q.push(event{at: time.Duration(rng.Intn(16)), seq: seq})
		}
		checkQueue(t, &q)
		var prev event
		for i := 0; i < n; i++ {
			ev := q.pop()
			if i > 0 && !prev.before(&ev) {
				t.Fatalf("trial %d: popped (%v,%d) after (%v,%d)", trial, ev.at, ev.seq, prev.at, prev.seq)
			}
			prev = ev
		}
		if q.len() != 0 {
			t.Fatalf("queue not drained: %d left", q.len())
		}
	}
}

// TestEventHeapPreSized checks each lane's first push installs its pre-sized
// backing array, so steady-state simulations never grow the queue: the first
// event of a run is in order by definition and lands in the FIFO lane, the
// first one scheduled ahead of the lane's tail in the heap.
func TestEventHeapPreSized(t *testing.T) {
	e := NewSerialEnv(&Clock{})
	e.At(5, func() {})
	q := &e.shards[0].events
	if q.n != 1 || len(q.lane) < eventHeapInitialCap || q.heap != nil {
		t.Fatalf("first push: lane holds %d of %d, heap cap %d; want 1 of >= %d and no heap",
			q.n, len(q.lane), cap(q.heap), eventHeapInitialCap)
	}
	e.At(3, func() {})
	if len(q.heap) != 1 || cap(q.heap) < eventHeapInitialCap || e.Shard(0).HeapHighWater() != 1 {
		t.Fatalf("early push: heap holds %d of %d, high-water %d; want 1 of >= %d",
			len(q.heap), cap(q.heap), e.Shard(0).HeapHighWater(), eventHeapInitialCap)
	}
	if at, ok := q.nextAt(); !ok || at != 3 {
		t.Fatalf("nextAt = %v, %v; want the heap's 3", at, ok)
	}
}

// TestEventQueueLaneGivesBackItsArray: a burst scheduled in order grows the
// lane past its initial capacity, and draining it drops the array — the
// 4 000 arrivals of a database run are not held for the life of the shard —
// after which the next admission starts from the initial capacity again.
func TestEventQueueLaneGivesBackItsArray(t *testing.T) {
	var q eventQueue
	const burst = 8 * eventHeapInitialCap
	for i := 0; i < burst; i++ {
		q.push(event{at: time.Duration(i), seq: int64(i)})
	}
	if q.n != burst || len(q.lane) < burst || q.heap != nil {
		t.Fatalf("ascending burst: lane holds %d of %d, heap %d", q.n, len(q.lane), len(q.heap))
	}
	for i := 0; i < burst; i++ {
		if ev := q.pop(); ev.seq != int64(i) {
			t.Fatalf("pop %d returned seq %d", i, ev.seq)
		}
	}
	if q.lane != nil {
		t.Fatalf("drained lane kept an array of %d", len(q.lane))
	}
	q.push(event{at: 1, seq: burst})
	if len(q.lane) != eventHeapInitialCap {
		t.Fatalf("re-admission allocated %d slots, want %d", len(q.lane), eventHeapInitialCap)
	}
	checkQueue(t, &q)
}

// FuzzEventHeap drives the queue with a byte-encoded op stream — odd bytes
// pop, even bytes push at time b>>1 (a deliberately tiny timestamp range, so
// equal-`at` seq tie-breaks dominate) — and checks every pop against a
// linear-scan reference minimum and the lanes' invariants after every op.
// The checked-in corpus seeds the shapes that matter: dense equal-timestamp
// ties, a burst far past the initial capacity drained back down, an
// ascending burst followed by earlier-than-tail pushes interleaved with pops
// (the database run's shape: arrivals in the lane, sleeps and wakes in the
// heap), ties whose two events sit in different lanes, and a lane drained
// empty — its grown array dropped — then re-admitted.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{6, 6, 6, 6, 2, 1, 1, 1, 1, 1, 4, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q eventQueue
		var ref []event
		var seq int64
		for _, b := range ops {
			if b&1 == 1 && len(ref) > 0 {
				min := 0
				for i := 1; i < len(ref); i++ {
					if ref[i].before(&ref[min]) {
						min = i
					}
				}
				want := ref[min]
				ref = append(ref[:min], ref[min+1:]...)
				if at, ok := q.nextAt(); !ok || at != want.at {
					t.Fatalf("nextAt = %v, %v; want %v", at, ok, want.at)
				}
				got := q.pop()
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("pop = (%v,%d), want (%v,%d)", got.at, got.seq, want.at, want.seq)
				}
			} else if b&1 == 0 {
				ev := event{at: time.Duration(b >> 1), seq: seq}
				seq++
				q.push(ev)
				ref = append(ref, ev)
			}
			checkQueue(t, &q)
			if q.len() != len(ref) {
				t.Fatalf("queue len %d, reference len %d", q.len(), len(ref))
			}
		}
		// Drain whatever remains in (at, seq) order.
		var prev event
		for i := 0; q.len() > 0; i++ {
			ev := q.pop()
			if i > 0 && !prev.before(&ev) {
				t.Fatalf("drain popped (%v,%d) after (%v,%d)", ev.at, ev.seq, prev.at, prev.seq)
			}
			prev = ev
		}
		checkQueue(t, &q)
		if _, ok := q.nextAt(); ok {
			t.Fatal("nextAt reports an event in a drained queue")
		}
	})
}
