package plane

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Ring is a bounded multi-producer / single-consumer queue of envelopes,
// built on per-cell sequence numbers (Vyukov's bounded queue) so producers
// never rendezvous through a mutex: an enqueue is one CAS on the tail plus
// two cell stores, and the consumer side is plain loads and stores under an
// external single-consumer guarantee (the delivery plane's combining
// token). It is the concurrent scheduler's lane.
//
// Close only refuses new Puts — envelopes already accepted are still
// handed out by Pop, so a revoked manager's lane can be drained and each
// pending delivery answered.
type Ring[T any] struct {
	mask   uint64
	cells  []ringCell[T]
	_      [48]byte      // keep tail and head on separate cache lines
	tail   atomic.Uint64 // next position a producer claims
	_      [56]byte
	head   atomic.Uint64 // next position the consumer pops
	_      [56]byte
	seq    atomic.Uint64 // envelope sequence stamps
	closed atomic.Bool
}

type ringCell[T any] struct {
	seq atomic.Uint64
	env Envelope[T]
}

// NewRing builds a ring with capacity rounded up to a power of two (minimum
// two cells).
func NewRing[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{mask: uint64(n - 1), cells: make([]ringCell[T], n)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// Put enqueues msg stamped with now. It reports false (and drops the
// message) if the ring is closed — the caller treats that as delivering to
// a revoked manager. A full ring makes the producer yield until the
// consumer frees a cell.
func (r *Ring[T]) Put(now time.Duration, msg T) bool {
	for {
		if r.closed.Load() {
			return false
		}
		pos := r.tail.Load()
		c := &r.cells[pos&r.mask]
		switch diff := int64(c.seq.Load()) - int64(pos); {
		case diff == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				c.env = Envelope[T]{Seq: r.seq.Add(1), Time: now, Msg: msg}
				c.seq.Store(pos + 1)
				return true
			}
		case diff < 0:
			// Full: the consumer has not recycled this cell yet.
			runtime.Gosched()
		}
		// diff > 0: another producer claimed pos; reload and retry.
	}
}

// Pop removes the oldest envelope. It must only be called by one goroutine
// at a time (the scheduler's combining token provides that exclusion). It
// reports false when the ring is empty — including when a producer has
// claimed a cell but not yet published it; the caller's recheck-after-
// release protocol absorbs that window.
func (r *Ring[T]) Pop() (Envelope[T], bool) {
	pos := r.head.Load()
	c := &r.cells[pos&r.mask]
	if int64(c.seq.Load())-int64(pos+1) < 0 {
		var zero Envelope[T]
		return zero, false
	}
	env := c.env
	c.env = Envelope[T]{}
	c.seq.Store(pos + r.mask + 1)
	r.head.Store(pos + 1)
	return env, true
}

// PopMany fills buf with up to len(buf) envelopes, returning how many were
// popped. Same single-consumer requirement as Pop, but the head pointer is
// published once for the whole batch instead of per envelope — producers
// only consult per-cell sequence numbers (stored as each cell is freed), so
// deferring the head store costs them nothing while the consumer saves one
// shared-line store per message.
func (r *Ring[T]) PopMany(buf []Envelope[T]) int {
	pos := r.head.Load()
	n := uint64(0)
	for n < uint64(len(buf)) {
		c := &r.cells[(pos+n)&r.mask]
		if int64(c.seq.Load())-int64(pos+n+1) < 0 {
			break
		}
		buf[n] = c.env
		c.env = Envelope[T]{}
		c.seq.Store(pos + n + r.mask + 1)
		n++
	}
	if n > 0 {
		r.head.Store(pos + n)
	}
	return int(n)
}

// Len reports the approximate number of queued envelopes.
func (r *Ring[T]) Len() int {
	tail := r.tail.Load()
	head := r.head.Load()
	if tail <= head {
		return 0
	}
	return int(tail - head)
}

// Close refuses further Puts. Already-accepted envelopes remain poppable.
func (r *Ring[T]) Close() { r.closed.Store(true) }
