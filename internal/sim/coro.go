//go:build go1.23

// The constraint raises this file's language version: iter needs Go 1.23
// and go.mod, which the frozen bench module pins, says 1.22.

package sim

import "iter"

// worker is a runtime coroutine (iter.Pull) that runs process bodies one
// after another; next and yield switch goroutine to goroutine without
// entering the Go scheduler. A process takes a worker at its first dispatch
// and frees it when its body returns, so a shard holds as many coroutines
// as it has processes under way, not as many as were ever scheduled.
type worker struct {
	proc  *Proc // the process being run; nil while the worker is free
	yield func(struct{}) bool
	next  func() (struct{}, bool)
	stop  func()
}

func newWorker() *worker {
	w := &worker{}
	w.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			p := w.proc
			p.body(p)
			p.w, p.body, w.proc = nil, nil, nil
			if !yield(struct{}{}) {
				return // stopped while free
			}
		}
	})
	return w
}

// park suspends the calling process until the scheduler resumes it.
func (p *Proc) park() { p.w.yield(struct{}{}) }

// resume runs p until it parks or finishes; a panic in its body unwinds
// through next into the caller.
func (s *Shard) resume(p *Proc) {
	w := p.w
	if w == nil { // first dispatch
		if n := len(s.free); n > 0 {
			w, s.free = s.free[n-1], s.free[:n-1]
		} else {
			w = newWorker()
		}
		w.proc, p.w = p, w
	}
	w.next()
	if w.proc == nil {
		s.free = append(s.free, w)
	}
}

// stopWorkers ends the free coroutines; those bound to a process (parked,
// or asleep past a RunUntil deadline) stay.
func (e *Env) stopWorkers() {
	for _, s := range e.shards {
		for _, w := range s.free {
			w.stop()
		}
		s.free = nil
	}
}
