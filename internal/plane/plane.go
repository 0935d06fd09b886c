// Package plane holds message-queue primitives: envelopes stamped with
// virtual time and a global sequence number, per-manager mailboxes with a
// group that drains a set of them in deterministic virtual-time order, and
// a bounded multi-producer ring (ring.go).
//
// Nothing in the root module delivers through them any more: a fault is a
// direct call into its manager under both kernel schedulers, serialized by
// a mutex on the manager's record under the concurrent one. They stay for
// bench/'s plane.mailbox_ns and plane.ring_ns probes.
//
// The package is deliberately a leaf: it knows nothing about kernels,
// faults or managers. Mailbox and Group are NOT internally synchronized:
// one goroutine owns them.
package plane

import "time"

// Envelope is one queued message: the payload plus the virtual-time stamp
// and global sequence number assigned when it was enqueued. Seq breaks
// virtual-time ties, so drain order is a total order: (Time, Seq).
type Envelope[T any] struct {
	Seq  uint64
	Time time.Duration
	Msg  T
}

// Mailbox is an unbounded FIFO of envelopes. Envelopes leave a mailbox in
// the order they entered it; ordering *across* mailboxes is the Group's job.
type Mailbox[T any] struct {
	buf  []Envelope[T]
	head int
}

// Len reports the number of queued envelopes.
func (m *Mailbox[T]) Len() int { return len(m.buf) - m.head }

// Push appends an envelope. Most callers go through Group.Enqueue, which
// stamps the envelope first.
func (m *Mailbox[T]) Push(e Envelope[T]) {
	// Compact once the dead prefix dominates, so the slice doesn't grow
	// without bound across enqueue/pop cycles.
	if m.head > 32 && m.head > len(m.buf)/2 {
		n := copy(m.buf, m.buf[m.head:])
		m.buf = m.buf[:n]
		m.head = 0
	}
	m.buf = append(m.buf, e)
}

// Peek returns the envelope at the head without removing it.
func (m *Mailbox[T]) Peek() (Envelope[T], bool) {
	if m.Len() == 0 {
		var zero Envelope[T]
		return zero, false
	}
	return m.buf[m.head], true
}

// Pop removes and returns the envelope at the head.
func (m *Mailbox[T]) Pop() (Envelope[T], bool) {
	e, ok := m.Peek()
	if !ok {
		return e, false
	}
	m.buf[m.head] = Envelope[T]{} // release payload references
	m.head++
	if m.head == len(m.buf) {
		m.buf = m.buf[:0]
		m.head = 0
	}
	return e, true
}

// Drain removes and returns every queued envelope in FIFO order. Used on
// revocation: the caller answers each drained message itself.
func (m *Mailbox[T]) Drain() []Envelope[T] {
	if m.Len() == 0 {
		return nil
	}
	out := make([]Envelope[T], m.Len())
	copy(out, m.buf[m.head:])
	for i := m.head; i < len(m.buf); i++ {
		m.buf[i] = Envelope[T]{}
	}
	m.buf = m.buf[:0]
	m.head = 0
	return out
}

// Group is a set of mailboxes sharing one sequence counter. PopOldest
// drains the group in (Time, Seq) order, which is the serial scheduler's
// determinism guarantee: with a fixed enqueue history the drain order is
// a pure function of that history.
type Group[T any] struct {
	seq   uint64
	boxes []*Mailbox[T]
}

// NewMailbox creates a mailbox and adds it to the group.
func (g *Group[T]) NewMailbox() *Mailbox[T] {
	m := &Mailbox[T]{}
	g.boxes = append(g.boxes, m)
	return m
}

// Remove detaches a mailbox from the group (revocation). Queued envelopes
// stay in the mailbox; the caller drains and answers them.
func (g *Group[T]) Remove(m *Mailbox[T]) {
	for i, b := range g.boxes {
		if b == m {
			g.boxes = append(g.boxes[:i], g.boxes[i+1:]...)
			return
		}
	}
}

// Enqueue stamps msg with the current virtual time and the next global
// sequence number and appends it to mb. It returns the stamped envelope so
// the caller can wait for that specific message to be processed.
func (g *Group[T]) Enqueue(mb *Mailbox[T], now time.Duration, msg T) Envelope[T] {
	g.seq++
	e := Envelope[T]{Seq: g.seq, Time: now, Msg: msg}
	mb.Push(e)
	return e
}

// Len reports the total number of queued envelopes across the group.
func (g *Group[T]) Len() int {
	n := 0
	for _, b := range g.boxes {
		n += b.Len()
	}
	return n
}

// PopOldest removes and returns the envelope with the smallest (Time, Seq)
// across all mailboxes in the group. It compares only mailbox heads, which
// is the global minimum provided enqueue timestamps are nondecreasing —
// guaranteed in practice because they come from a monotone virtual clock.
func (g *Group[T]) PopOldest() (Envelope[T], bool) {
	var best *Mailbox[T]
	var bestEnv Envelope[T]
	for _, b := range g.boxes {
		e, ok := b.Peek()
		if !ok {
			continue
		}
		if best == nil || e.Time < bestEnv.Time ||
			(e.Time == bestEnv.Time && e.Seq < bestEnv.Seq) {
			best, bestEnv = b, e
		}
	}
	if best == nil {
		var zero Envelope[T]
		return zero, false
	}
	best.Pop()
	return bestEnv, true
}
