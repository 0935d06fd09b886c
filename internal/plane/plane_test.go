package plane

import (
	"testing"
	"time"
)

func TestMailboxFIFO(t *testing.T) {
	var g Group[int]
	mb := g.NewMailbox()
	for i := 0; i < 100; i++ {
		g.Enqueue(mb, time.Duration(i), i)
	}
	if mb.Len() != 100 {
		t.Fatalf("Len = %d, want 100", mb.Len())
	}
	for i := 0; i < 100; i++ {
		e, ok := mb.Pop()
		if !ok || e.Msg != i {
			t.Fatalf("pop %d: got (%v, %v)", i, e.Msg, ok)
		}
	}
	if _, ok := mb.Pop(); ok {
		t.Fatal("pop on empty mailbox succeeded")
	}
}

func TestMailboxCompaction(t *testing.T) {
	var g Group[int]
	mb := g.NewMailbox()
	// Interleave pushes and pops so head advances far enough to trigger
	// compaction; FIFO order must survive it.
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			g.Enqueue(mb, 0, next)
			next++
		}
		for i := 0; i < 2; i++ {
			e, ok := mb.Pop()
			if !ok || e.Msg != want {
				t.Fatalf("round %d: got (%v,%v), want %d", round, e.Msg, ok, want)
			}
			want++
		}
	}
	for mb.Len() > 0 {
		e, _ := mb.Pop()
		if e.Msg != want {
			t.Fatalf("tail: got %v, want %d", e.Msg, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d messages, pushed %d", want, next)
	}
}

func TestGroupPopOldestOrder(t *testing.T) {
	var g Group[string]
	a, b, c := g.NewMailbox(), g.NewMailbox(), g.NewMailbox()
	// Timestamps are nondecreasing (monotone virtual clock); equal times
	// are broken by sequence number.
	g.Enqueue(c, 1, "c1")
	g.Enqueue(b, 2, "b2")
	g.Enqueue(a, 5, "a5")
	g.Enqueue(b, 5, "b5")
	g.Enqueue(a, 9, "a9")
	want := []string{"c1", "b2", "a5", "b5", "a9"}
	for i, w := range want {
		e, ok := g.PopOldest()
		if !ok || e.Msg != w {
			t.Fatalf("pop %d: got (%q,%v), want %q", i, e.Msg, ok, w)
		}
	}
	if _, ok := g.PopOldest(); ok {
		t.Fatal("PopOldest on empty group succeeded")
	}
}

func TestGroupRemoveAndDrain(t *testing.T) {
	var g Group[int]
	a, b := g.NewMailbox(), g.NewMailbox()
	g.Enqueue(a, 1, 10)
	g.Enqueue(b, 2, 20)
	g.Enqueue(a, 3, 30)
	g.Remove(a)
	left := a.Drain()
	if len(left) != 2 || left[0].Msg != 10 || left[1].Msg != 30 {
		t.Fatalf("drained %v, want [10 30]", left)
	}
	if g.Len() != 1 {
		t.Fatalf("group Len = %d after remove, want 1", g.Len())
	}
	e, ok := g.PopOldest()
	if !ok || e.Msg != 20 {
		t.Fatalf("PopOldest after remove: got (%v,%v), want 20", e.Msg, ok)
	}
}
