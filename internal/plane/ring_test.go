package plane

import (
	"sync"
	"testing"
	"time"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 5; i++ {
		if !r.Put(time.Duration(i), i) {
			t.Fatalf("Put %d refused", i)
		}
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	for i := 0; i < 5; i++ {
		env, ok := r.Pop()
		if !ok || env.Msg != i {
			t.Fatalf("Pop %d = %v,%v", i, env.Msg, ok)
		}
		if env.Time != time.Duration(i) {
			t.Fatalf("envelope time = %v, want %v", env.Time, time.Duration(i))
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on empty ring succeeded")
	}
}

func TestRingSequenceNumbersMonotonic(t *testing.T) {
	r := NewRing[string](4)
	r.Put(0, "a")
	r.Put(0, "b")
	e1, _ := r.Pop()
	e2, _ := r.Pop()
	if e2.Seq <= e1.Seq {
		t.Fatalf("sequence not monotonic: %d then %d", e1.Seq, e2.Seq)
	}
}

func TestRingCapacityRoundsUp(t *testing.T) {
	// Capacity rounds to a power of two, minimum 2; fill to the rounded
	// capacity, the next Put spins — so test with full consumption instead.
	r := NewRing[int](3)
	n := 0
	for i := 0; i < 4; i++ {
		if r.Put(0, i) {
			n++
		}
	}
	if n != 4 {
		t.Fatalf("rounded capacity holds %d, want 4", n)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRingCloseRefusesPutNotPop(t *testing.T) {
	r := NewRing[int](4)
	r.Put(0, 1)
	r.Close()
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if r.Put(0, 2) {
		t.Fatal("Put accepted after Close")
	}
	// Queued messages survive Close for the revoking drain.
	if env, ok := r.Pop(); !ok || env.Msg != 1 {
		t.Fatalf("Pop after Close = %v,%v", env.Msg, ok)
	}
}

// TestRingMPSC is the contract the flat-combining scheduler relies on:
// many producers Put concurrently, one consumer (the token holder) Pops;
// every message arrives exactly once, and per-producer order is preserved.
func TestRingMPSC(t *testing.T) {
	const producers = 8
	const perProducer = 500
	r := NewRing[[2]int](64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for !r.Put(0, [2]int{p, i}) {
					t.Error("Put refused on open ring")
					return
				}
			}
		}(p)
	}

	seen := make([][]int, producers)
	done := make(chan struct{})
	go func() {
		defer close(done)
		total := 0
		for total < producers*perProducer {
			env, ok := r.Pop()
			if !ok {
				continue
			}
			seen[env.Msg[0]] = append(seen[env.Msg[0]], env.Msg[1])
			total++
		}
	}()
	wg.Wait()
	<-done

	for p := 0; p < producers; p++ {
		if len(seen[p]) != perProducer {
			t.Fatalf("producer %d: %d messages arrived, want %d", p, len(seen[p]), perProducer)
		}
		for i, v := range seen[p] {
			if v != i {
				t.Fatalf("producer %d: message %d arrived at position %d", p, v, i)
			}
		}
	}
}

// Closed reports whether the ring has been closed.
func (r *Ring[T]) Closed() bool { return r.closed.Load() }
