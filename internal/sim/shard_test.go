package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// strand schedules a chain of steps callbacks on sh, the first at start and
// each later one a gap after the one before, and records every step as
// "(time) name step n" in *trace.
func strand(sh *Shard, trace *[]string, name string, start time.Duration, steps int, gap func() time.Duration) {
	step := 0
	var tick func()
	tick = func() {
		*trace = append(*trace, fmt.Sprintf("%v %s step %d", sh.Now(), name, step))
		if step++; step < steps {
			sh.After(gap(), tick)
		}
	}
	sh.At(start, tick)
}

// traceWorkload drives a small but varied callback mix on shard 0 — strands
// with random gaps, timers scheduled out of order, a same-time tie, a
// zero-delay follow-up and a RunUntil deadline mid-run — and records every
// step. The same workload runs on both engines; identical traces mean
// identical event order and identical clock advancement.
func traceWorkload(e *Env) []string {
	var trace []string
	sh := e.Shard(0)
	note := func(what string) { trace = append(trace, fmt.Sprintf("%v %s", sh.Now(), what)) }
	for i := 0; i < 4; i++ {
		rng := NewRNG(uint64(1992 + i))
		strand(sh, &trace, fmt.Sprintf("strand-%d", i), time.Duration(i)*time.Microsecond, 20,
			func() time.Duration { return time.Duration(rng.Intn(50)) * time.Microsecond })
	}
	e.At(300*time.Microsecond, func() { note("late timer") })
	e.At(10*time.Microsecond, func() {
		note("early timer")
		e.After(0, func() { note("zero-delay follow-up") })
	})
	e.At(300*time.Microsecond, func() { note("tied timer") })
	e.RunUntil(100 * time.Microsecond)
	note("deadline")
	e.Run()
	return trace
}

// TestShardedSingleShardMatchesSerial pins the golden-parity property: a
// single-shard sharded engine — the windowed drain — produces the exact
// event order and clock sequence of the serial engine.
func TestShardedSingleShardMatchesSerial(t *testing.T) {
	serial := traceWorkload(NewSerialEnv(&Clock{}))
	sharded := traceWorkload(NewShardedEnv(&Clock{}, 1, 0))
	if len(serial) != len(sharded) {
		t.Fatalf("trace lengths differ: serial %d, sharded %d", len(serial), len(sharded))
	}
	for i := range serial {
		if serial[i] != sharded[i] {
			t.Fatalf("traces diverge at step %d:\n  serial:  %s\n  sharded: %s", i, serial[i], sharded[i])
		}
	}
}

// shardedTrace runs three strands of callbacks per shard and returns the
// per-shard traces plus the final shard clocks.
func shardedTrace(shards int, seed uint64) ([][]string, []time.Duration) {
	e := NewShardedEnv(&Clock{}, shards, 0)
	traces := make([][]string, shards)
	for i := 0; i < shards; i++ {
		for pid := 0; pid < 3; pid++ {
			rng := NewRNG(seed + uint64(i*16+pid))
			strand(e.Shard(i), &traces[i], fmt.Sprintf("s%d-p%d", i, pid), 0, 40,
				func() time.Duration { return time.Duration(1+rng.Intn(120)) * time.Microsecond })
		}
	}
	e.Run()
	clocks := make([]time.Duration, shards)
	for i := range clocks {
		clocks[i] = e.Shard(i).Now()
	}
	return traces, clocks
}

// TestShardedEnvDeterminism runs the same multi-shard workload twice and
// requires bit-identical per-shard traces and final clocks: window
// boundaries must be pure functions of virtual time, never of wall-clock
// goroutine interleaving.
func TestShardedEnvDeterminism(t *testing.T) {
	t1, c1 := shardedTrace(4, 7)
	t2, c2 := shardedTrace(4, 7)
	for i := range t1 {
		if c1[i] != c2[i] {
			t.Fatalf("shard %d final clock differs: %v vs %v", i, c1[i], c2[i])
		}
		if len(t1[i]) != len(t2[i]) {
			t.Fatalf("shard %d trace lengths differ: %d vs %d", i, len(t1[i]), len(t2[i]))
		}
		for j := range t1[i] {
			if t1[i][j] != t2[i][j] {
				t.Fatalf("shard %d diverges at step %d:\n  run1: %s\n  run2: %s", i, j, t1[i][j], t2[i][j])
			}
		}
	}
}

// A window goroutine that has signalled its WaitGroup takes a moment more
// to exit, so goroutine counts are read with patience: goroutines waits up
// to two seconds for the count to reach want and reports where it stands;
// quietGoroutines waits for an earlier test's stragglers to go.
func goroutines(want int) int {
	for i := 0; i < 2000 && runtime.NumGoroutine() != want; i++ {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func quietGoroutines() int {
	for {
		n := runtime.NumGoroutine()
		if time.Sleep(5 * time.Millisecond); runtime.NumGoroutine() == n {
			return n
		}
	}
}

// TestRunLeavesNoGoroutines: the sharded engine drains a window's shards on
// goroutines of its own; when RunUntil stops at a deadline, and when Run
// returns, every one of them is gone, on both engines.
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := quietGoroutines()
	for _, e := range []*Env{NewSerialEnv(&Clock{}), NewShardedEnv(&Clock{}, 3, 0)} {
		var traces [3][]string
		for i := 0; i < 30; i++ {
			s := i % len(e.shards)
			strand(e.Shard(s), &traces[s], "p", time.Duration(i)*time.Microsecond, 20,
				func() time.Duration { return 7 * time.Microsecond })
		}
		e.RunUntil(60 * time.Microsecond)
		if n := goroutines(base); n != base {
			t.Fatalf("windowed=%v: %d goroutines at the deadline, baseline %d", e.windowed, n, base)
		}
		e.Run()
		if n := goroutines(base); n != base {
			t.Fatalf("windowed=%v: %d goroutines after Run, baseline %d", e.windowed, n, base)
		}
		if steps := len(traces[0]) + len(traces[1]) + len(traces[2]); steps != 30*20 {
			t.Fatalf("windowed=%v: %d steps ran, want %d", e.windowed, steps, 30*20)
		}
	}
}
