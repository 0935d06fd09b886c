package phys

import (
	"math/rand"
	"sync"
	"testing"
)

// Buddy-style coalescing: frames freed one at a time must become visible
// again as aligned runs. The per-stripe block bitmaps are the authority for
// run search, and they must stay exactly in sync with the LIFO slices
// through any interleaving of Pop, Push and AllocRunAppend.
func TestAllocRunCoalescing(t *testing.T) {
	pfns := make([]int64, 256)
	for i := range pfns {
		pfns[i] = int64(i)
	}
	f := NewFreeList(pfns)
	for order := 0; order <= MaxRunOrder; order++ {
		run, _ := f.AllocRunAppend(nil, order, nil)
		if len(run) != 1<<order {
			t.Fatalf("order %d: got %d frames, want %d", order, len(run), 1<<order)
		}
		if run[0]%int64(len(run)) != 0 {
			t.Fatalf("order %d: run base %d not naturally aligned", order, run[0])
		}
		for i := 1; i < len(run); i++ {
			if run[i] != run[0]+int64(i) {
				t.Fatalf("order %d: run not consecutive at %d: %v", order, i, run)
			}
		}
		// Free the run back one frame at a time, shuffled: the bitmaps must
		// re-coalesce it so the same run is allocatable again.
		shuffled := append([]int64(nil), run...)
		rand.New(rand.NewSource(int64(order))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, pfn := range shuffled {
			f.Push([]int64{pfn})
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
	}
	if f.Len() != 256 {
		t.Fatalf("pool leaked frames: %d, want 256", f.Len())
	}
	if got := f.LongestRun(); got != 1<<MaxRunOrder {
		t.Fatalf("LongestRun = %d after full refill, want %d", got, 1<<MaxRunOrder)
	}
}

// AllocRunAppend must refuse orders outside [0, MaxRunOrder] and admit-reject
// whole runs: a run containing one refused frame is skipped, not split.
func TestAllocRunAdmitAndBounds(t *testing.T) {
	pfns := make([]int64, 128)
	for i := range pfns {
		pfns[i] = int64(i)
	}
	f := NewFreeList(pfns)
	if _, ok := f.AllocRunAppend(nil, -1, nil); ok {
		t.Fatal("negative order served a run")
	}
	if _, ok := f.AllocRunAppend(nil, MaxRunOrder+1, nil); ok {
		t.Fatal("out-of-range order served a run")
	}
	// Refuse every PFN below 64: only the upper block can serve runs.
	admit := func(pfn int64) bool { return pfn >= 64 }
	run, _ := f.AllocRunAppend(nil, 4, admit)
	if len(run) != 16 || run[0] < 64 {
		t.Fatalf("admit-constrained run = %v", run)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The invariant test proper: concurrent AllocRunAppend/Pop/Push interleavings
// (run under -race in CI) must conserve frames, never double-allocate, and
// keep the bitmaps consistent with the slices at every quiesce point.
func TestFreeListRunConcurrent(t *testing.T) {
	const frames = 1024
	pfns := make([]int64, frames)
	for i := range pfns {
		pfns[i] = int64(i)
	}
	f := NewFreeList(pfns)
	const workers = 8
	var mu sync.Mutex
	held := make(map[int64]int) // pfn -> holder count; >1 means double-alloc
	take := func(t *testing.T, got []int64) {
		mu.Lock()
		defer mu.Unlock()
		for _, pfn := range got {
			held[pfn]++
			if held[pfn] > 1 {
				t.Errorf("pfn %d allocated twice", pfn)
			}
		}
	}
	give := func(batch []int64) {
		mu.Lock()
		for _, pfn := range batch {
			held[pfn]--
		}
		mu.Unlock()
		f.Push(batch)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var pool []int64
			for iter := 0; iter < 400; iter++ {
				switch rng.Intn(3) {
				case 0:
					if got, ok := f.AllocRunAppend(nil, 1+rng.Intn(MaxRunOrder), nil); ok {
						take(t, got)
						pool = append(pool, got...)
					}
				case 1:
					if got := f.Pop(1+rng.Intn(8), nil); got != nil {
						take(t, got)
						pool = append(pool, got...)
					}
				case 2:
					if len(pool) > 0 {
						n := 1 + rng.Intn(len(pool))
						give(pool[len(pool)-n:])
						pool = pool[:len(pool)-n]
					}
				}
			}
			give(pool)
		}(w)
	}
	wg.Wait()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.Len() != frames {
		t.Fatalf("pool holds %d frames after drain, want %d", f.Len(), frames)
	}
	for pfn, n := range held {
		if n != 0 {
			t.Fatalf("pfn %d leaked with holder count %d", pfn, n)
		}
	}
	// Everything returned: the largest run must be allocatable again.
	if got := f.LongestRun(); got != 1<<MaxRunOrder {
		t.Fatalf("LongestRun = %d after full return, want %d", got, 1<<MaxRunOrder)
	}
}

// LongestRun reports the length of the longest aligned run currently
// available at the given order granularity — a diagnostic the run tests
// check coalescing with, not an allocation primitive.
func (f *FreeList) LongestRun() int {
	best := 0
	for i := range f.stripes {
		s := &f.stripes[i]
		s.mu.Lock()
		for _, bs := range s.blocks {
			run := 0
			for b := 0; b < freeListBlockSize; b++ {
				if bs&(1<<uint(b)) != 0 {
					run++
					if run > best {
						best = run
					}
				} else {
					run = 0
				}
			}
		}
		s.mu.Unlock()
	}
	return best
}
