package manager

import "epcm/internal/kernel"

// lfuPolicy is sampled LFU: each resident page carries an access-frequency
// counter fed by the manager-visible signals (insert, touch) plus the
// sampled reference bit at eviction time. The victim is the minimum
// (frequency, insertion-sequence) pair — ties break FIFO — which makes the
// choice deterministic regardless of arrival interleaving. The entry table
// is a dense arena with swap-remove, scanned linearly at Victim time;
// manager resident sets here are small enough (thousands) that the O(n)
// min scan is cheaper than maintaining a heap on every touch.
type lfuPolicy struct {
	entries []lfuEntry
	idx     map[PageID]int32
	seq     uint64
	// skip marks entries rejected during the current Victim call (pinned,
	// constraint-rejected, or freshly second-chanced); reused across calls.
	skip map[PageID]bool
}

type lfuEntry struct {
	id   PageID
	freq uint64
	seq  uint64
}

// NewLFUPolicy returns a sampled least-frequently-used replacement policy.
func NewLFUPolicy() Policy {
	return &lfuPolicy{idx: map[PageID]int32{}, skip: map[PageID]bool{}}
}

func init() { RegisterPolicy("lfu", NewLFUPolicy) }

func (p *lfuPolicy) PolicyName() string { return "lfu" }

func (p *lfuPolicy) Insert(_ PolicyHost, id PageID) {
	if _, dup := p.idx[id]; dup {
		return
	}
	p.seq++
	p.idx[id] = int32(len(p.entries))
	p.entries = append(p.entries, lfuEntry{id: id, freq: 1, seq: p.seq})
}

func (p *lfuPolicy) Touch(_ PolicyHost, id PageID) {
	if n, ok := p.idx[id]; ok {
		p.entries[n].freq++
	}
}

func (p *lfuPolicy) Remove(_ PolicyHost, id PageID) {
	n, ok := p.idx[id]
	if !ok {
		return
	}
	last := int32(len(p.entries) - 1)
	p.entries[n] = p.entries[last]
	p.entries = p.entries[:last]
	delete(p.idx, id)
	if n < last {
		p.idx[p.entries[n].id] = n
	}
}

func (p *lfuPolicy) Victim(h PolicyHost) (PageID, kernel.PageFlags, bool, error) {
	// Two rounds: a referenced minimum gets its bit cleared and a
	// frequency credit, then is skipped for the round (second chance); the
	// second round may take it if it is still the coldest.
	clear(p.skip)
	for pass := 0; pass < 2; pass++ {
		for {
			best := int32(-1)
			for i := range p.entries {
				e := &p.entries[i]
				if p.skip[e.id] {
					continue
				}
				if best < 0 || e.freq < p.entries[best].freq ||
					(e.freq == p.entries[best].freq && e.seq < p.entries[best].seq) {
					best = int32(i)
				}
			}
			if best < 0 {
				break // nothing selectable this pass
			}
			id := p.entries[best].id
			a, err := h.Sample(id)
			if err != nil {
				return PageID{}, 0, false, err
			}
			if !a.Present {
				h.Forget(id)
				continue
			}
			if a.Flags.Has(kernel.FlagPinned) || !h.Admits(id) {
				p.skip[id] = true
				continue
			}
			if a.Flags.Has(kernel.FlagReferenced) {
				if err := h.ClearReferenced(id); err != nil {
					return PageID{}, 0, false, err
				}
				p.entries[p.idx[id]].freq++
				p.skip[id] = true
				continue
			}
			return id, a.Flags, true, nil
		}
		clear(p.skip) // second chances expire; pass 2 takes the coldest
	}
	return PageID{}, 0, false, nil
}
