package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// scriptProc is the process surface scripts and benchmarks drive; *Proc and
// *refProc both provide it.
type scriptProc interface {
	Name() string
	Now() time.Duration
	Sleep(d time.Duration)
	Park()
}

// procEngine puts the coroutine engine and the reference channel engine
// behind one process-facing surface. Timers, Send, RunUntil and the
// counters are the embedded Env's on both sides.
type procEngine struct {
	*Env
	goAt    func(s *Shard, t time.Duration, name string, body func(scriptProc))
	wake    func(p scriptProc)
	acquire func(shard int, p scriptProc) // one capacity-2 resource per shard
	release func(shard int)
}

func coroEngine(e *Env) procEngine {
	res := make([]*Resource, e.NumShards())
	for i := range res {
		res[i] = NewResource(e, 2)
	}
	return procEngine{
		Env: e,
		goAt: func(s *Shard, t time.Duration, name string, body func(scriptProc)) {
			s.GoAt(t, name, func(p *Proc) { body(p) })
		},
		wake:    func(p scriptProc) { e.Wake(p.(*Proc)) },
		acquire: func(shard int, p scriptProc) { res[shard].Acquire(p.(*Proc)) },
		release: func(shard int) { res[shard].Release() },
	}
}

func chanEngine(e *Env) procEngine {
	r := newRefEnv(e)
	res := make([]*refResource, e.NumShards())
	for i := range res {
		res[i] = &refResource{env: r, capacity: 2}
	}
	return procEngine{
		Env: e,
		goAt: func(s *Shard, t time.Duration, name string, body func(scriptProc)) {
			r.GoAt(s, t, name, func(p *refProc) { body(p) })
		},
		wake:    func(p scriptProc) { r.Wake(p.(*refProc)) },
		acquire: func(shard int, p scriptProc) { res[shard].Acquire(p.(*refProc)) },
		release: func(shard int) { res[shard].Release() },
	}
}

// traceEntry is one scripted step as its shard saw it.
type traceEntry struct {
	at   time.Duration
	proc string
	step int
	op   int
}

// procScript is one seeded run. Every process draws its steps from an RNG
// seeded by its own id, and touches only its own shard's state, so the
// script is the same on every engine and race-free under concurrent window
// drains.
type procScript struct {
	eng      procEngine
	seed     uint64
	steps    int
	draining bool // set between runs: a woken waiter returns instead of going on
	shards   []scriptShard
	stranded scriptProc // parks at once, woken only by the drain
}

type scriptShard struct {
	trace   []traceEntry
	waiters []scriptProc // parked by the script, oldest first
}

const (
	scriptMaxDepth = 3
	// scriptLookahead is the sharded environments' lookahead; the serial
	// ones (lookahead zero) send as far ahead, so one script fits all.
	scriptLookahead = 50 * time.Microsecond
	opTimerFired    = 100
	opSendArrived   = 101
)

func (r *procScript) wakeOne(shard int) {
	st := &r.shards[shard]
	if len(st.waiters) > 0 {
		w := st.waiters[0]
		st.waiters = st.waiters[1:]
		r.eng.wake(w)
	}
}

func (r *procScript) spawn(shard int, at time.Duration, name string, id uint64, depth int) {
	r.eng.goAt(r.eng.Shard(shard), at, name, func(p scriptProc) { r.body(p, shard, id, depth) })
}

func (r *procScript) body(p scriptProc, shard int, id uint64, depth int) {
	rng := NewRNG(r.seed ^ id*0x9e3779b97f4a7c15)
	st := &r.shards[shard]
	sh := r.eng.Shard(shard)
	us := func(n int) time.Duration { return time.Duration(rng.Intn(n)) * time.Microsecond }
	children := 0
	for step := 0; step < r.steps; step++ {
		op := rng.Intn(10)
		st.trace = append(st.trace, traceEntry{p.Now(), p.Name(), step, op})
		switch op {
		case 0, 1:
			p.Sleep(us(40))
		case 2:
			p.Sleep(0) // same-instant reschedule: ordered by seq alone
		case 3:
			r.eng.acquire(shard, p)
			p.Sleep(us(20))
			r.eng.release(shard)
		case 4:
			st.waiters = append(st.waiters, p)
			p.Park()
			if r.draining {
				return
			}
		case 5:
			r.wakeOne(shard)
		case 6, 7: // a process spawns a process, now or later
			if depth < scriptMaxDepth {
				children++
				at := p.Now()
				if op == 7 {
					at += us(60)
				}
				r.spawn(shard, at, fmt.Sprintf("%s.%d", p.Name(), children), id*8+uint64(children), depth+1)
			}
		case 8:
			name := p.Name()
			sh.After(us(30), func() {
				st.trace = append(st.trace, traceEntry{sh.Now(), name, step, opTimerFired})
				r.wakeOne(shard)
			})
		case 9: // cross-shard message (an ordinary timer on one shard)
			to := (shard + 1 + rng.Intn(len(r.shards))) % len(r.shards)
			name, dst := p.Name(), r.eng.Shard(to)
			sh.Send(dst, p.Now()+scriptLookahead+us(30), func() {
				r.shards[to].trace = append(r.shards[to].trace, traceEntry{dst.Now(), name, step, opSendArrived})
				r.wakeOne(to)
			})
		}
	}
}

// scriptOutcome is everything FuzzProcSchedule compares between engines.
type scriptOutcome struct {
	traces  [][]traceEntry
	blocked [3]int // after RunUntil(mid), after Run, after the drain
	events  int64
	clocks  []time.Duration
}

// diff describes the first difference from want, or returns "".
func (o scriptOutcome) diff(want scriptOutcome) string {
	for sh := range o.traces {
		got, ref := o.traces[sh], want.traces[sh]
		for i := 0; i < len(got) && i < len(ref); i++ {
			if got[i] != ref[i] {
				return fmt.Sprintf("shard %d trace entry %d is %+v, want %+v", sh, i, got[i], ref[i])
			}
		}
		if len(got) != len(ref) {
			return fmt.Sprintf("shard %d trace has %d entries, want %d", sh, len(got), len(ref))
		}
	}
	if o.blocked != want.blocked || o.events != want.events || !slices.Equal(o.clocks, want.clocks) {
		return fmt.Sprintf("blocked %v events %d clocks %v, want %v %d %v",
			o.blocked, o.events, o.clocks, want.blocked, want.events, want.clocks)
	}
	return ""
}

func runProcScript(eng procEngine, seed uint64, procs, steps int, strand bool) scriptOutcome {
	n := eng.NumShards()
	r := &procScript{eng: eng, seed: seed, steps: steps, shards: make([]scriptShard, n)}
	for i := 0; i < procs; i++ {
		r.spawn(i%n, time.Duration(i%3)*time.Microsecond, fmt.Sprintf("p%d", i), uint64(i+1), 0)
	}
	if strand {
		eng.goAt(eng.Shard(0), 0, "stranded", func(p scriptProc) {
			r.stranded = p
			p.Park()
		})
	}
	var out scriptOutcome
	out.blocked[0] = eng.RunUntil(150 * time.Microsecond) // processes stay parked or asleep across runs
	out.blocked[1] = eng.Run()
	r.draining = true
	for i := range r.shards {
		for len(r.shards[i].waiters) > 0 {
			r.wakeOne(i)
		}
	}
	if strand {
		eng.wake(r.stranded)
	}
	out.blocked[2] = eng.Run()
	out.events = eng.EventsProcessed()
	for i := range r.shards {
		out.traces = append(out.traces, r.shards[i].trace)
		out.clocks = append(out.clocks, eng.Shard(i).Now())
	}
	return out
}

// FuzzProcSchedule replays one seeded process script on the coroutine
// engine and on the reference channel engine — on the serial engine and on
// the sharded engine with one and three shards — and requires the same
// per-shard (time, process, step) trace, event count, blocked counts and
// final clocks. One shard must also reproduce the serial engine exactly.
func FuzzProcSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(16), false)
	f.Add(uint64(1992), uint8(7), uint8(23), true)
	f.Add(uint64(7), uint8(0), uint8(3), true) // little but the stranded process
	f.Fuzz(func(t *testing.T, seed uint64, procs, steps uint8, strand bool) {
		np, ns := 1+int(procs%8), 1+int(steps%24)
		var serial scriptOutcome
		for _, shards := range []int{0, 1, 3} {
			build := func() *Env {
				if shards == 0 {
					return NewSerialEnv(&Clock{})
				}
				return NewShardedEnv(&Clock{}, shards, scriptLookahead)
			}
			got := runProcScript(coroEngine(build()), seed, np, ns, strand)
			want := runProcScript(chanEngine(build()), seed, np, ns, strand)
			if d := got.diff(want); d != "" {
				t.Fatalf("%d shards: coroutine engine diverged from the reference: %s", shards, d)
			}
			if strand && got.blocked[1] == 0 {
				t.Fatalf("%d shards: the stranded process was not reported blocked", shards)
			}
			if got.blocked[2] != 0 {
				t.Fatalf("%d shards: %d processes still blocked after the drain", shards, got.blocked[2])
			}
			switch shards {
			case 0:
				serial = got
			case 1:
				if d := got.diff(serial); d != "" {
					t.Fatalf("one shard diverged from the serial engine: %s", d)
				}
			}
		}
	})
}
