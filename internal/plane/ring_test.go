package plane

import (
	"sync"
	"testing"
	"time"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 5; i++ {
		r.Put(time.Duration(i), i)
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
	// Capacity rounds to a power of two, minimum 2: a ring asked for 3
	// holds 4 without a consumer (a fifth Put would spin), and hands them
	// back in order.
	r := NewRing[int](3)
	if len(r.cells) != 4 {
		t.Fatalf("capacity 3 rounded to %d cells, want 4", len(r.cells))
	}
	for i := 0; i < 4; i++ {
		r.Put(0, i)
	}
	for i := 0; i < 4; i++ {
		if env, ok := r.Pop(); !ok || env.Msg != i {
			t.Fatalf("Pop %d = %v,%v", i, env.Msg, ok)
		}
	}
}

// TestRingMPSC: many producers Put concurrently, one consumer Pops; every
// message arrives exactly once, and per-producer order is preserved.
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
				r.Put(0, [2]int{p, i})
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
