package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// Layer benchmarks for the time engine (ROADMAP item 1: "event-heap
// push/pop and the shard window barrier", plus the process switch PR 15
// rebuilt). The process benchmarks run the coroutine engine beside the
// channel engine it replaced (reference_test.go) through the same loop, so
// one run prints before and after; steady-state loops that must not
// allocate say so with mustNotAlloc. scripts/check.sh smoke-runs them at
// one iteration.

// benchEngines runs the loop on both process engines, each on a fresh
// serial environment.
func benchEngines(b *testing.B, run func(b *testing.B, eng procEngine)) {
	b.Run("coro", func(b *testing.B) { b.ReportAllocs(); run(b, coroEngine(NewSerialEnv(&Clock{}))) })
	b.Run("chan", func(b *testing.B) { b.ReportAllocs(); run(b, chanEngine(NewSerialEnv(&Clock{}))) })
}

// mustNotAlloc fails the benchmark if step — a further slice of the loop
// just timed, run with the timer stopped — allocates.
func mustNotAlloc(b *testing.B, step func()) {
	b.Helper()
	b.StopTimer()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		b.Fatalf("%v allocs per steady-state step, want 0", allocs)
	}
}

// BenchmarkProcSwitch: two processes alternating Sleep — one op is one
// dispatch, a switch into a process and back out.
func BenchmarkProcSwitch(b *testing.B) {
	benchEngines(b, func(b *testing.B, eng procEngine) {
		stop := false
		for i := 0; i < 2; i++ {
			eng.goAt(eng.Shard(0), 0, "p", func(p scriptProc) {
				for !stop {
					p.Sleep(time.Nanosecond)
				}
			})
		}
		eng.RunUntil(0) // both started: the loop below is switches only
		b.ResetTimer()
		eng.RunUntil(time.Duration(b.N / 2)) // two dispatches per nanosecond
		mustNotAlloc(b, func() { eng.RunUntil(eng.Now() + 16) })
		stop = true
		eng.Run()
	})
}

// BenchmarkProcSpawn: GoAt, first dispatch, body returns — what a
// transaction costs the engine beyond its switches. Spawned in bursts no
// deeper than the event heap's initial capacity.
func BenchmarkProcSpawn(b *testing.B) {
	benchEngines(b, func(b *testing.B, eng procEngine) {
		body := func(scriptProc) {}
		for left := b.N; left > 0; left -= eventHeapInitialCap {
			for i := 0; i < left && i < eventHeapInitialCap; i++ {
				eng.goAt(eng.Shard(0), eng.Now()+time.Duration(i), "p", body)
			}
			eng.Run()
		}
	})
}

// BenchmarkParkWake: one op is a Park/Wake pair — the waker's Wake and
// Sleep and the two dispatches they cause.
func BenchmarkParkWake(b *testing.B) {
	benchEngines(b, func(b *testing.B, eng procEngine) {
		stop := false
		var sleeper scriptProc
		eng.goAt(eng.Shard(0), 0, "sleeper", func(p scriptProc) {
			sleeper = p
			for !stop {
				p.Park()
			}
		})
		eng.goAt(eng.Shard(0), 0, "waker", func(p scriptProc) {
			for !stop {
				eng.wake(sleeper)
				p.Sleep(time.Nanosecond)
			}
			eng.wake(sleeper)
		})
		b.ResetTimer()
		eng.RunUntil(time.Duration(b.N))
		mustNotAlloc(b, func() { eng.RunUntil(eng.Now() + 16) })
		stop = true
		if blocked := eng.Run(); blocked != 0 {
			b.Fatalf("%d processes left blocked", blocked)
		}
	})
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
// environment carrying one cross-shard Send — window bounds, drain, inbox
// merge. "one-active" bounces a single message between the shards, so each
// window drains one shard inline; in "two-active" both shards also tick
// every window, so each window starts and joins two drain goroutines.
func BenchmarkWindowBarrier(b *testing.B) {
	for _, both := range []bool{false, true} {
		name := "one-active"
		if both {
			name = "two-active"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			e := NewShardedEnv(&Clock{}, 2, time.Microsecond)
			L, left := e.Lookahead(), b.N
			var hop [2]func()
			for i := range hop {
				from, to := e.Shard(i), e.Shard(1-i)
				hop[i] = func() {
					if left--; left > 0 {
						from.Send(to, from.Now()+L, hop[1-i])
					}
				}
			}
			if both {
				for i := 0; i < 2; i++ {
					sh := e.Shard(i)
					var tick func()
					tick = func() {
						if left > 0 {
							sh.After(L, tick)
						}
					}
					sh.At(0, tick)
				}
			}
			e.Shard(0).At(0, hop[0])
			b.ResetTimer()
			e.Run()
			if w := e.Windows(); w < int64(b.N) {
				b.Fatalf("%d windows for %d sends", w, b.N)
			}
		})
	}
}

// BenchmarkClockAdvance: one op is one charge. "serial" is the keyless call
// a single owner makes; the parallel variants charge from two goroutines —
// on one key (one cache line: what every charger paid while the clock was a
// single word) and on a key each (the striped clock's point: the cost of
// "serial", not of a line bouncing between cores).
func BenchmarkClockAdvance(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		var c Clock
		for i := 0; i < b.N; i++ {
			c.Advance(time.Nanosecond)
		}
		mustNotAlloc(b, func() { c.Advance(time.Nanosecond) })
		if got := c.Now(); got != time.Duration(b.N+21) { // the loop, then AllocsPerRun's 20 runs and warm-up
			b.Fatalf("clock reads %v after %d charges", got, b.N+21)
		}
	})
	parallel := func(b *testing.B, distinct bool) {
		b.SetParallelism(1)
		var c Clock
		var next atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			key := uint64(0)
			if distinct {
				key = next.Add(1)
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
