package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"epcm/internal/harness"
)

// TestProcPanicReachesRun: a panic in a process body unwinds through the
// coroutine switch into Run's caller, so harness.Run — which every
// experiment runs under — reports it as that task's error. (With a
// goroutine per process the panic was on a stray goroutine and killed the
// program.)
func TestProcPanicReachesRun(t *testing.T) {
	boom := errors.New("boom")
	run := func() (int, error) {
		e := NewSerialEnv(&Clock{})
		e.Go("bystander", func(p *Proc) { p.Sleep(time.Second) })
		e.GoAt(time.Millisecond, "bad", func(p *Proc) {
			p.Sleep(time.Millisecond)
			panic(boom)
		})
		return e.Run(), nil
	}
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Run recovered %v, want the body's panic value", r)
			}
		}()
		run()
		t.Fatal("Run returned")
	}()
	res := harness.Run([]harness.Task[int]{{Name: "ok", Run: func() (int, error) { return 7, nil }}, {Name: "bad", Run: run}}, 1)
	var pe *harness.PanicError
	if res[0].Err != nil || res[0].Value != 7 || !errors.As(res[1].Err, &pe) || pe.Value != boom {
		t.Fatalf("harness results = %+v, want task 0 fine and task 1 a PanicError carrying the body's value", res)
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

// TestRunLeavesNoGoroutines: when Run returns, the coroutines of finished
// processes are gone on both engines; only a permanently blocked process
// keeps its coroutine (and is reported).
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := quietGoroutines()
	for _, e := range []*Env{NewSerialEnv(&Clock{}), NewShardedEnv(&Clock{}, 3, 0)} {
		for i := 0; i < 30; i++ {
			sh := e.Shard(i % e.NumShards())
			sh.GoAt(time.Duration(i)*time.Microsecond, "p", func(p *Proc) {
				for step := 0; step < 20; step++ {
					p.Sleep(7 * time.Microsecond)
				}
			})
		}
		if blocked := e.RunUntil(60 * time.Microsecond); blocked != 0 {
			t.Fatalf("%s: %d blocked at the deadline", e.EngineName(), blocked)
		}
		if n := goroutines(base + 30); n != base+30 {
			t.Fatalf("%s: %d goroutines mid-run, want the 30 sleeping processes' coroutines above the baseline %d", e.EngineName(), n, base)
		}
		if blocked := e.Run(); blocked != 0 {
			t.Fatalf("%s: %d blocked", e.EngineName(), blocked)
		}
		if n := goroutines(base); n != base {
			t.Fatalf("%s: %d goroutines after Run, baseline %d", e.EngineName(), n, base)
		}
	}
	e := NewSerialEnv(&Clock{})
	e.Go("stuck", func(p *Proc) { p.Park() })
	if blocked := e.Run(); blocked != 1 {
		t.Fatalf("blocked = %d, want 1", blocked)
	}
	if n := goroutines(base + 1); n != base+1 {
		t.Fatalf("%d goroutines with one process parked for good, want %d", n, base+1)
	}
}

// TestCoroutinesTrackOpenProcesses: a process takes its coroutine at first
// dispatch and the next process to start reuses it, so many scheduled
// processes that never overlap run on one.
func TestCoroutinesTrackOpenProcesses(t *testing.T) {
	base := quietGoroutines()
	e := NewSerialEnv(&Clock{})
	peak := 0
	for i := 0; i < 1000; i++ {
		e.GoAt(time.Duration(i)*time.Millisecond, "p", func(p *Proc) {
			p.Sleep(time.Microsecond)
			if n := runtime.NumGoroutine() - base; n > peak {
				peak = n
			}
		})
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after scheduling, baseline %d: a process must not start before its first dispatch", n, base)
	}
	e.Run()
	if peak != 1 {
		t.Fatalf("peak coroutines = %d for 1000 processes one at a time, want 1", peak)
	}
}
