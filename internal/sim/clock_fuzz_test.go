package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// panics reports whether fn panicked.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// FuzzClock replays a seeded script of every Clock operation — Advance,
// AdvanceOn under arbitrary keys, AdvanceTo, Reset, a Stopwatch — on the
// striped clock and on refClock, comparing the time read after every step
// and that the two refusals (a negative advance, AdvanceTo into the past)
// panic on both and move neither. The same script drives a bare Striped
// against a plain int64 through Add, Load and Store. The mode bit shares the
// clock and the counter at a step the seed picks (the first, often), as the
// kernel's concurrent scheduler does to a clock that may already have run:
// a shared and an unshared clock read the same after every step, whatever
// the keys. In check.sh's 10 s smokes.
func FuzzClock(f *testing.F) {
	f.Add(uint64(1), 64, false)
	f.Add(uint64(1), 64, true)
	f.Add(uint64(1992), 400, false)
	f.Add(uint64(1992), 400, true)
	f.Fuzz(func(t *testing.T, seed uint64, steps int, shared bool) {
		if steps < 0 || steps > 2000 {
			t.Skip()
		}
		rng := NewRNG(seed)
		var c Clock
		var ref refClock
		var s Striped
		var sref int64
		watch, watchStart := NewStopwatch(&c), time.Duration(0)
		shareAt := -1
		if shared {
			shareAt = max(0, rng.Intn(2*steps+1)-steps) // step 0 half the time
		}
		for i := 0; i < steps; i++ {
			if i == shareAt {
				c.Share()
				s.Share()
			}
			d := time.Duration(rng.Intn(1 << 20))
			key := rng.Uint64()
			if rng.Intn(4) == 0 {
				key %= Stripes + 2 // small keys: the kernel's segment IDs
			}
			var cp, rp bool
			switch op := rng.Intn(16); {
			case op < 4:
				c.Advance(d)
				ref.Advance(d)
			case op < 9:
				c.AdvanceOn(key, d)
				ref.AdvanceOn(key, d)
			case op < 11:
				to := ref.Now() + d
				c.AdvanceTo(to)
				ref.AdvanceTo(to)
			case op == 11:
				cp = panics(func() { c.AdvanceOn(key, -1-d) }) && panics(func() { c.Advance(-1 - d) })
				rp = panics(func() { ref.Advance(-1 - d) })
			case op == 12:
				if ref.Now() == 0 {
					continue
				}
				to := time.Duration(rng.Intn(int(min(ref.Now(), 1<<40))))
				cp = panics(func() { c.AdvanceTo(to) })
				rp = panics(func() { ref.AdvanceTo(to) })
			case op == 13:
				if rng.Intn(4) == 0 {
					c.Reset()
					ref.Reset()
					watch, watchStart = NewStopwatch(&c), 0
				}
			case op == 14:
				watch, watchStart = NewStopwatch(&c), ref.Now()
			default:
				v := int64(rng.Intn(1<<30)) - 1<<29
				if rng.Intn(8) == 0 {
					s.Store(v)
					sref = v
				} else {
					s.Add(key, v)
					sref += v
				}
			}
			if cp != rp {
				t.Fatalf("step %d: striped clock panicked %v, reference %v", i, cp, rp)
			}
			if c.Now() != ref.Now() {
				t.Fatalf("step %d: striped clock reads %v, reference %v", i, c.Now(), ref.Now())
			}
			if got, want := watch.Elapsed(), ref.Now()-watchStart; got != want {
				t.Fatalf("step %d: stopwatch reads %v, want %v", i, got, want)
			}
			if got := s.Load(); got != sref {
				t.Fatalf("step %d: striped counter reads %d, want %d", i, got, sref)
			}
		}
		if c.Shared() != (shareAt >= 0 && shareAt < steps) || s.Shared() != c.Shared() {
			t.Fatalf("clock shared %v, counter %v, shared at step %d of %d", c.Shared(), s.Shared(), shareAt, steps)
		}
	})
}

// TestChaosClockHammer has goroutines charge known totals to one clock and
// one bare Striped — some under a key each, some colliding on one key, one
// through the keyless Advance — while a reader checks the time never runs
// backwards; the final readings must be the exact sums. Both are shared
// first, as a second charger requires. Run with -race in the chaos stage of
// scripts/check.sh; it needs two CPUs to mean anything.
func TestChaosClockHammer(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	const (
		chargers = 12
		charges  = 20000
	)
	var c Clock
	var s Striped
	c.Share()
	s.Share()
	var wg sync.WaitGroup
	var want time.Duration
	for g := 0; g < chargers; g++ {
		key := uint64(g) // a stripe each for the first few, wrapping after
		if g%3 == 2 {
			key = 5 // and a third of them pile onto one
		}
		d := time.Duration(g + 1)
		want += charges * d
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < charges; i++ {
				if g == 0 {
					c.Advance(d)
				} else {
					c.AdvanceOn(key, d)
				}
				s.Add(key, int64(d))
			}
		}(g)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var last time.Duration
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := c.Now()
			if now < last {
				t.Errorf("clock ran backwards: %v after %v", now, last)
				return
			}
			last = now
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if got := c.Now(); got != want {
		t.Errorf("clock reads %v after the hammer, want exactly %v", got, want)
	}
	if got := s.Load(); got != int64(want) {
		t.Errorf("striped counter reads %d after the hammer, want exactly %d", got, int64(want))
	}
}

// Stopwatch measures an interval of virtual time against a Clock.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// NewStopwatch starts a stopwatch at the clock's current time.
func NewStopwatch(c *Clock) Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// Elapsed reports the virtual time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return s.clock.Now() - s.start }
