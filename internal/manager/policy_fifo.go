package manager

import "epcm/internal/kernel"

// fifoPolicy is true first-in-first-out: pages are evicted in strict
// arrival order, with no recency signal of any kind — Touch is a no-op and
// the reference bit grants no second chance. FIFO is the classic baseline
// the paper-era replacement literature measures everything against (and the
// victim of Bélády's anomaly); having it registered makes the shootout's
// recency columns interpretable. The queue is the LRU policy's pageList.
type fifoPolicy struct{ pageList }

// NewFIFOPolicy returns a strict arrival-order replacement policy.
func NewFIFOPolicy() Policy { return &fifoPolicy{newPageList()} }

func init() { RegisterPolicy("fifo", NewFIFOPolicy) }

func (p *fifoPolicy) PolicyName() string { return "fifo" }

// Touch is deliberately a no-op: arrival order is the only signal FIFO uses.
func (p *fifoPolicy) Touch(_ PolicyHost, _ PageID) {}

func (p *fifoPolicy) Victim(h PolicyHost) (PageID, kernel.PageFlags, bool, error) {
	// One pass from the oldest arrival, skipping pages the pass cannot
	// take (pinned, wrong frame constraint) without reordering them —
	// their queue position is preserved for the next pass.
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
		return id, a.Flags, true, nil
	}
	return PageID{}, 0, false, nil
}
