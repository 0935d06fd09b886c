package manager

import "epcm/internal/kernel"

// pageList is an arena of index-linked nodes ordered from head (newest) to
// tail (oldest) with a page index, so steady-state operation allocates
// nothing. The LRU and FIFO policies embed it; its Insert and Remove are
// theirs.
type pageList struct {
	nodes []lruNode
	freed []int32
	idx   map[PageID]int32
	head  int32 // newest; -1 when empty
	tail  int32 // oldest; -1 when empty
}

type lruNode struct {
	id   PageID
	prev int32 // toward head (newer)
	next int32 // toward tail (older)
}

func newPageList() pageList { return pageList{idx: map[PageID]int32{}, head: -1, tail: -1} }

// lruPolicy is sampled LRU: an exact recency list ordered by the signals a
// manager can actually see (insert, fast re-fault, protection-fault touch),
// corrected at eviction time by the hardware reference bit — a referenced
// tail page is granted a second chance (bit cleared, moved to MRU) before
// the true coldest unreferenced page is evicted.
type lruPolicy struct{ pageList }

// NewLRUPolicy returns a sampled least-recently-used replacement policy.
func NewLRUPolicy() Policy { return &lruPolicy{newPageList()} }

func init() { RegisterPolicy("lru", NewLRUPolicy) }

func (p *lruPolicy) PolicyName() string { return "lru" }

func (p *pageList) Insert(_ PolicyHost, id PageID) {
	if _, dup := p.idx[id]; dup {
		return
	}
	var n int32
	if l := len(p.freed); l > 0 {
		n = p.freed[l-1]
		p.freed = p.freed[:l-1]
		p.nodes[n] = lruNode{id: id}
	} else {
		n = int32(len(p.nodes))
		p.nodes = append(p.nodes, lruNode{id: id})
	}
	p.idx[id] = n
	p.linkFront(n)
}

func (p *lruPolicy) Touch(_ PolicyHost, id PageID) {
	if n, ok := p.idx[id]; ok {
		p.unlink(n)
		p.linkFront(n)
	}
}

func (p *pageList) Remove(_ PolicyHost, id PageID) {
	n, ok := p.idx[id]
	if !ok {
		return
	}
	p.unlink(n)
	delete(p.idx, id)
	p.freed = append(p.freed, n)
}

func (p *lruPolicy) Victim(h PolicyHost) (PageID, kernel.PageFlags, bool, error) {
	// Two passes from the cold end: the first clears reference bits
	// (second chance) on its way up; the second takes the coldest page
	// whose bit stayed clear. Charged samples stay within the clock's
	// 2×resident budget.
	for pass := 0; pass < 2; pass++ {
		for cur := p.tail; cur >= 0; {
			n := p.nodes[cur]
			id := n.id
			a, err := h.Sample(id)
			if err != nil {
				return PageID{}, 0, false, err
			}
			if !a.Present {
				h.Forget(id) // fires Remove, unlinking cur
				cur = n.prev
				continue
			}
			if a.Flags.Has(kernel.FlagPinned) || !h.Admits(id) {
				cur = n.prev
				continue
			}
			if a.Flags.Has(kernel.FlagReferenced) {
				if err := h.ClearReferenced(id); err != nil {
					return PageID{}, 0, false, err
				}
				p.unlink(cur)
				p.linkFront(cur)
				cur = n.prev
				continue
			}
			return id, a.Flags, true, nil
		}
	}
	return PageID{}, 0, false, nil
}

func (p *pageList) linkFront(n int32) {
	p.nodes[n].prev = -1
	p.nodes[n].next = p.head
	if p.head >= 0 {
		p.nodes[p.head].prev = n
	}
	p.head = n
	if p.tail < 0 {
		p.tail = n
	}
}

func (p *pageList) unlink(n int32) {
	prev, next := p.nodes[n].prev, p.nodes[n].next
	if prev >= 0 {
		p.nodes[prev].next = next
	} else {
		p.head = next
	}
	if next >= 0 {
		p.nodes[next].prev = prev
	} else {
		p.tail = prev
	}
}
