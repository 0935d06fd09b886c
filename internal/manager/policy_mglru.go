package manager

import "epcm/internal/kernel"

// mglruPolicy is an MGLRU-style multi-generational policy: resident pages
// live in four generations ordered by coldness; new and re-touched pages
// enter the youngest. Eviction scans the oldest populated generation in
// bulk — reference bits for the whole generation are read with ONE batched
// kernel call (PolicyHost.SampleMany) and cleared with batched flag
// writes, the aging analogue of the paper's §2.3 batched protection
// changes. Referenced, pinned and constraint-rejected pages promote to the
// youngest generation; unreferenced pages in younger generations age one
// step per scan; unreferenced pages of the oldest generation become
// eviction candidates, served (with a one-page revalidation sample) across
// subsequent Victim calls.
type mglruPolicy struct {
	gens [mgGens][]PageID
	idx  map[PageID]mgPos
	// pending holds validated candidates from the last aging scan, served
	// FIFO; every entry is revalidated with one sample before eviction.
	pending pageQueue

	// scan scratch, grouped per segment in first-appearance order so the
	// charged-call sequence is deterministic.
	scanSegs  []*kernel.Segment
	scanPages map[*kernel.Segment][]int64
	attrBuf   []kernel.PageAttribute
	clearBuf  []int64
}

type mgPos struct {
	gen int8
	pos int32
}

const mgGens = 4

// NewMGLRUPolicy returns a multi-generational (MGLRU-style) replacement
// policy.
func NewMGLRUPolicy() Policy {
	return &mglruPolicy{
		idx:       map[PageID]mgPos{},
		scanPages: map[*kernel.Segment][]int64{},
	}
}

func init() { RegisterPolicy("mglru", NewMGLRUPolicy) }

func (p *mglruPolicy) PolicyName() string { return "mglru" }

func (p *mglruPolicy) Insert(_ PolicyHost, id PageID) {
	if _, dup := p.idx[id]; dup {
		return
	}
	p.place(id, 0)
}

func (p *mglruPolicy) Touch(_ PolicyHost, id PageID) {
	if pos, ok := p.idx[id]; ok && pos.gen != 0 {
		p.take(id, pos)
		p.place(id, 0)
	}
}

func (p *mglruPolicy) Remove(_ PolicyHost, id PageID) {
	if pos, ok := p.idx[id]; ok {
		p.take(id, pos)
		delete(p.idx, id)
	}
}

func (p *mglruPolicy) Victim(h PolicyHost) (PageID, kernel.PageFlags, bool, error) {
	// Up to one full trip through the generation ladder: a freshly faulted
	// page needs one scan to shed its reference bit, mgGens-1 aging scans
	// to reach the oldest generation, one more to become a candidate, and
	// a final iteration to serve it from pending.
	for round := 0; round <= mgGens+1; round++ {
		// Serve pending candidates first, each revalidated with one
		// charged sample (its bits may have changed since the scan).
		for {
			id, ok := p.pending.pop()
			if !ok {
				break
			}
			pos, live := p.idx[id]
			if !live {
				continue
			}
			a, err := h.Sample(id)
			if err != nil {
				return PageID{}, 0, false, err
			}
			if !a.Present {
				h.Forget(id)
				continue
			}
			if a.Flags.Has(kernel.FlagPinned) || !h.Admits(id) || a.Flags.Has(kernel.FlagReferenced) {
				if a.Flags.Has(kernel.FlagReferenced) {
					if err := h.ClearReferenced(id); err != nil {
						return PageID{}, 0, false, err
					}
				}
				p.take(id, pos)
				p.place(id, 0) // back to the youngest; earn coldness again
				continue
			}
			return id, a.Flags, true, nil
		}
		if err := p.agingScan(h); err != nil {
			return PageID{}, 0, false, err
		}
		if p.pending.len() == 0 && p.empty() {
			break
		}
	}
	return PageID{}, 0, false, nil
}

// agingScan batch-samples the oldest populated generation, promotes
// referenced/pinned pages to the youngest, ages unreferenced pages one
// generation, and queues oldest-generation unreferenced pages as eviction
// candidates.
func (p *mglruPolicy) agingScan(h PolicyHost) error {
	g := -1
	for i := mgGens - 1; i >= 0; i-- {
		if len(p.gens[i]) > 0 {
			g = i
			break
		}
	}
	if g < 0 {
		return nil
	}
	// Group the generation's pages per segment, preserving first-appearance
	// order (map iteration would be nondeterministic).
	p.scanSegs = p.scanSegs[:0]
	for _, id := range p.gens[g] {
		if _, seen := p.scanPages[id.Seg]; !seen {
			p.scanSegs = append(p.scanSegs, id.Seg)
			p.scanPages[id.Seg] = nil
		}
		p.scanPages[id.Seg] = append(p.scanPages[id.Seg], id.Page)
	}
	for _, seg := range p.scanSegs {
		pages := p.scanPages[seg]
		var err error
		p.attrBuf, err = h.SampleMany(seg, pages, p.attrBuf[:0])
		if err != nil {
			p.resetScan()
			return err
		}
		p.clearBuf = p.clearBuf[:0]
		for i, a := range p.attrBuf {
			id := PageID{Seg: seg, Page: pages[i]}
			pos, live := p.idx[id]
			if !live {
				continue
			}
			switch {
			case !a.Present:
				h.Forget(id)
			case a.Flags.Has(kernel.FlagReferenced):
				p.clearBuf = append(p.clearBuf, id.Page)
				p.take(id, pos)
				p.place(id, 0)
			case a.Flags.Has(kernel.FlagPinned) || !h.Admits(id):
				p.take(id, pos)
				p.place(id, 0)
			case g == mgGens-1:
				p.pending.push(id)
			default:
				p.take(id, pos)
				p.place(id, int8(g+1))
			}
		}
		if len(p.clearBuf) > 0 {
			if err := h.ClearReferencedMany(seg, p.clearBuf); err != nil {
				p.resetScan()
				return err
			}
		}
	}
	p.resetScan()
	return nil
}

func (p *mglruPolicy) resetScan() {
	for _, seg := range p.scanSegs {
		delete(p.scanPages, seg)
	}
	p.scanSegs = p.scanSegs[:0]
}

func (p *mglruPolicy) empty() bool {
	for i := range p.gens {
		if len(p.gens[i]) > 0 {
			return false
		}
	}
	return true
}

func (p *mglruPolicy) place(id PageID, gen int8) {
	p.idx[id] = mgPos{gen: gen, pos: int32(len(p.gens[gen]))}
	p.gens[gen] = append(p.gens[gen], id)
}

func (p *mglruPolicy) take(id PageID, pos mgPos) {
	list := p.gens[pos.gen]
	last := int32(len(list) - 1)
	list[pos.pos] = list[last]
	p.gens[pos.gen] = list[:last]
	if pos.pos < last {
		moved := list[pos.pos]
		p.idx[moved] = mgPos{gen: pos.gen, pos: pos.pos}
	}
}
