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
// external single-consumer guarantee. The kernel no longer queues
// deliveries (a manager's faults are serialized by a mutex on its record);
// the ring stays for bench/'s plane.ring_ns probe.
type Ring[T any] struct {
	mask  uint64
	cells []ringCell[T]
	_     [48]byte      // keep tail and head on separate cache lines
	tail  atomic.Uint64 // next position a producer claims
	_     [56]byte
	head  atomic.Uint64 // next position the consumer pops
	_     [56]byte
	seq   atomic.Uint64 // envelope sequence stamps
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

// Put enqueues msg stamped with now. A full ring makes the producer yield
// until the consumer frees a cell.
func (r *Ring[T]) Put(now time.Duration, msg T) {
	for {
		pos := r.tail.Load()
		c := &r.cells[pos&r.mask]
		switch diff := int64(c.seq.Load()) - int64(pos); {
		case diff == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				c.env = Envelope[T]{Seq: r.seq.Add(1), Time: now, Msg: msg}
				c.seq.Store(pos + 1)
				return
			}
		case diff < 0:
			// Full: the consumer has not recycled this cell yet.
			runtime.Gosched()
		}
		// diff > 0: another producer claimed pos; reload and retry.
	}
}

// Pop removes the oldest envelope. It must only be called by one goroutine
// at a time. It reports false when the ring is empty — including when a
// producer has claimed a cell but not yet published it.
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
