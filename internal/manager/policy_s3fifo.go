package manager

import "epcm/internal/kernel"

// s3fifoPolicy is the S3-FIFO policy (small/main/ghost queues): new pages
// enter a small probationary FIFO; pages evicted from small leave a ghost
// entry, and a re-insert that hits the ghost goes straight to the main
// FIFO — one-hit wonders wash out of small without ever polluting main.
// Access signals are the manager-visible touches plus the sampled
// reference bit: a referenced page popped from small is promoted to main;
// a referenced page popped from main is requeued with its bit cleared.
// Queues hold PageIDs and purge lazily against the entry table, so Remove
// (which runs on the eviction path) is O(1).
type s3fifoPolicy struct {
	entries map[PageID]*s3Entry
	small   pageQueue
	main    pageQueue
	ghost   map[PageID]struct{}
	ghostQ  pageQueue
}

type s3Entry struct {
	freq  uint8
	where uint8 // s3Small or s3Main
}

const (
	s3Small = iota
	s3Main
)

// NewS3FIFOPolicy returns an S3-FIFO replacement policy.
func NewS3FIFOPolicy() Policy {
	return &s3fifoPolicy{entries: map[PageID]*s3Entry{}, ghost: map[PageID]struct{}{}}
}

func init() { RegisterPolicy("s3fifo", NewS3FIFOPolicy) }

func (p *s3fifoPolicy) PolicyName() string { return "s3fifo" }

func (p *s3fifoPolicy) Insert(_ PolicyHost, id PageID) {
	if _, dup := p.entries[id]; dup {
		return
	}
	e := &s3Entry{}
	if _, hit := p.ghost[id]; hit {
		delete(p.ghost, id)
		e.where = s3Main
		p.main.push(id)
	} else {
		e.where = s3Small
		p.small.push(id)
	}
	p.entries[id] = e
}

func (p *s3fifoPolicy) Touch(_ PolicyHost, id PageID) {
	if e, ok := p.entries[id]; ok && e.freq < 3 {
		e.freq++
	}
}

func (p *s3fifoPolicy) Remove(_ PolicyHost, id PageID) {
	delete(p.entries, id) // queue copies purge lazily on pop
}

func (p *s3fifoPolicy) Victim(h PolicyHost) (PageID, kernel.PageFlags, bool, error) {
	// Budget bounds the promote/requeue churn. Worst case a page needs one
	// small→main promotion plus three main cycles to bleed freq to zero,
	// so 5N steps guarantee an evictable page is found if one exists.
	budget := 5*len(p.entries) + 8
	for step := 0; step < budget; step++ {
		total := p.small.len() + p.main.len()
		if total == 0 {
			break
		}
		// Evict from small while it holds at least ~10% of the cache
		// (the S3-FIFO small-queue target), or when main is empty.
		fromSmall := p.small.len() > 0 && (p.small.len()*10 >= total || p.main.len() == 0)
		var q *pageQueue
		if fromSmall {
			q = &p.small
		} else {
			q = &p.main
		}
		id, ok := q.pop()
		if !ok {
			break
		}
		e, live := p.entries[id]
		if !live || (fromSmall && e.where != s3Small) || (!fromSmall && e.where != s3Main) {
			continue // stale queue copy
		}
		a, err := h.Sample(id)
		if err != nil {
			q.push(id)
			return PageID{}, 0, false, err
		}
		if !a.Present {
			h.Forget(id)
			continue
		}
		if a.Flags.Has(kernel.FlagPinned) || !h.Admits(id) {
			// Out of the way: park it at the tail of main.
			e.where = s3Main
			p.main.push(id)
			continue
		}
		referenced := a.Flags.Has(kernel.FlagReferenced)
		if referenced {
			if err := h.ClearReferenced(id); err != nil {
				q.push(id)
				return PageID{}, 0, false, err
			}
		}
		if fromSmall {
			if referenced || e.freq > 0 {
				e.freq = 0
				e.where = s3Main
				p.main.push(id)
				continue
			}
			// Evicted from small: leave a ghost so a quick re-fault
			// promotes straight to main.
			p.addGhost(id)
			return id, a.Flags, true, nil
		}
		if referenced || e.freq > 0 {
			if e.freq > 0 {
				e.freq--
			}
			p.main.push(id)
			continue
		}
		return id, a.Flags, true, nil
	}
	return PageID{}, 0, false, nil
}

func (p *s3fifoPolicy) addGhost(id PageID) {
	p.ghost[id] = struct{}{}
	p.ghostQ.push(id)
	limit := 2*len(p.entries) + 16
	for len(p.ghost) > limit {
		old, ok := p.ghostQ.pop()
		if !ok {
			break
		}
		delete(p.ghost, old)
	}
}

// pageQueue is a FIFO of PageIDs with amortized O(1) pop: a head cursor
// advances through the backing slice, which compacts once the dead prefix
// dominates.
type pageQueue struct {
	buf  []PageID
	head int
}

func (q *pageQueue) push(id PageID) { q.buf = append(q.buf, id) }

func (q *pageQueue) pop() (PageID, bool) {
	if q.head >= len(q.buf) {
		return PageID{}, false
	}
	id := q.buf[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return id, true
}

func (q *pageQueue) len() int { return len(q.buf) - q.head }
