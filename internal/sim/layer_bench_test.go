package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// Layer benchmarks for the time engine (ROADMAP item 7: "event-heap
// push/pop and the shard window barrier", plus the striped clock).
// Steady-state loops that must not allocate say so with mustNotAlloc.
// scripts/check.sh smoke-runs them at one iteration.

// mustNotAlloc fails the benchmark if step — a further slice of the loop
// just timed, run with the timer stopped — allocates.
func mustNotAlloc(b *testing.B, step func()) {
	b.Helper()
	b.StopTimer()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		b.Fatalf("%v allocs per steady-state step, want 0", allocs)
	}
}

// BenchmarkEventHeap: pop the earliest event and push one later, at a
// steady queue depth. The depth-N cases push at random times, so nearly
// everything sits in the heap. presorted-4096 is the database run's shape
// held steady: 4 096 ascending arrivals scheduled up front, which the FIFO
// lane takes, then every pop followed by a push due shortly after it (a
// transaction's sleeps and wakes, earlier than the lane's tail and so in the
// heap), every third one replaced by a fresh arrival behind the tail.
func BenchmarkEventHeap(b *testing.B) {
	run := func(name string, depth int, fill func(i int, rng *RNG) time.Duration, next func(i int, popped time.Duration, rng *RNG) time.Duration) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			s := NewSerialEnv(&Clock{}).Shard(0)
			rng := NewRNG(1)
			for i := 0; i < depth; i++ {
				s.push(event{at: fill(i, rng)})
			}
			i := 0
			step := func() {
				ev := s.events.pop()
				s.push(event{at: next(i, ev.at, rng)})
				i++
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				step()
			}
			mustNotAlloc(b, step)
			if s.events.len() != depth {
				b.Fatalf("queue depth %d, want %d", s.events.len(), depth)
			}
		})
	}
	for _, depth := range []int{128, 4096} {
		depth := depth
		run(fmt.Sprintf("depth-%d", depth), depth,
			func(_ int, rng *RNG) time.Duration { return time.Duration(rng.Intn(depth)) },
			func(_ int, popped time.Duration, rng *RNG) time.Duration {
				return popped + time.Duration(1+rng.Intn(depth))
			})
	}
	const gap = 1000 // between arrivals; a sleep is at most a tenth of it
	arrival := func(i int, _ *RNG) time.Duration { return time.Duration(i) * gap }
	run("presorted-4096", 4096, arrival,
		func(i int, popped time.Duration, rng *RNG) time.Duration {
			if i%3 == 2 {
				return arrival(4096+i/3, nil)
			}
			return popped + time.Duration(1+rng.Intn(gap/10))
		})
}

// BenchmarkWindowBarrier: one op is one lookahead window of a two-shard
// environment — window bounds, drain, barrier. "one-active" ticks shard 0
// once per window, so each window drains one shard inline; in "two-active"
// both shards tick every window, so each window starts and joins two drain
// goroutines.
func BenchmarkWindowBarrier(b *testing.B) {
	for _, both := range []bool{false, true} {
		name := "one-active"
		if both {
			name = "two-active"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			e := NewShardedEnv(&Clock{}, 2, time.Microsecond)
			active := e.shards[:1]
			if both {
				active = e.shards
			}
			ticks := make([]int, len(active))
			for i, sh := range active {
				var tick func()
				tick = func() {
					if ticks[i]++; ticks[i] < b.N {
						sh.After(e.lookahead, tick)
					}
				}
				sh.At(0, tick)
			}
			b.ResetTimer()
			e.Run()
			for i, n := range ticks {
				if n != b.N {
					b.Fatalf("shard %d ticked %d times in %d windows", i, n, b.N)
				}
			}
		})
	}
}

// BenchmarkClockAdvance: one op is one charge. "serial" is the keyless call
// a single owner makes on an unshared clock (a plain add), "serial-shared"
// the same call once the clock is shared (an out-of-line atomic add): their
// difference is the atomic's cost in a loop of nothing but charges. The
// parallel variants charge a shared clock from two goroutines — on one key
// (one cache line: what every charger paid while the clock was a single
// word) and on a key each (the striped clock's point: the cost of
// "serial-shared", not of a line bouncing between cores).
func BenchmarkClockAdvance(b *testing.B) {
	serial := func(b *testing.B, shared bool) {
		b.ReportAllocs()
		var c Clock
		if shared {
			c.Share()
		}
		for i := 0; i < b.N; i++ {
			c.Advance(time.Nanosecond)
		}
		mustNotAlloc(b, func() { c.Advance(time.Nanosecond) })
		if got := c.Now(); got != time.Duration(b.N+21) { // the loop, then AllocsPerRun's 20 runs and warm-up
			b.Fatalf("clock reads %v after %d charges", got, b.N+21)
		}
	}
	b.Run("serial", func(b *testing.B) { serial(b, false) })
	b.Run("serial-shared", func(b *testing.B) { serial(b, true) })
	parallel := func(b *testing.B, distinct bool) {
		b.SetParallelism(1)
		var c Clock
		c.Share()
		var next atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			key := uint64(0)
			if distinct {
				key = next.Add(1) - 1 // 0 and 1: stripe 0 sits nearest the shared flag
			}
			for pb.Next() {
				c.AdvanceOn(key, time.Nanosecond)
			}
		})
		if got := c.Now(); got != time.Duration(b.N) {
			b.Fatalf("clock reads %v after %d charges", got, b.N)
		}
	}
	b.Run("parallel-same-key", func(b *testing.B) { parallel(b, false) })
	b.Run("parallel-distinct-keys", func(b *testing.B) { parallel(b, true) })
}

// BenchmarkClockNow: one op is one read of the time — the sum of the stripes.
func BenchmarkClockNow(b *testing.B) {
	var c Clock
	for key := uint64(0); key < Stripes; key++ {
		c.AdvanceOn(key, time.Microsecond)
	}
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink += c.Now()
	}
	if sink != time.Duration(b.N)*Stripes*time.Microsecond {
		b.Fatalf("reads summed to %v", sink)
	}
}
