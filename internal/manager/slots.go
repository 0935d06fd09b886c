package manager

import (
	"fmt"
	"slices"
	"sync/atomic"

	"epcm/internal/kernel"
	"epcm/internal/phys"
)

// freeSlot is one slot of the free-page segment that currently holds a
// frame. A slot that was filled by reclaiming page `from` remembers it:
// if the application re-faults that page before the frame is reused, the
// manager migrates it straight back — no fill, no I/O (§2.2).
type freeSlot struct {
	slot   int64
	frame  *phys.Frame // the slot's frame, so the fill path never locks the free segment
	from   resKey      // meaningful only when recall is set
	recall bool        // false if the frame's contents are unassociated
}

// slotLedger is the manager's whole record of its free-page segment: every
// slot number below next is listed (holds a frame a fault may take), parked
// (holds a frame of a withheld extent run), empty, part of a recycled empty
// run, reserved for a migration in flight, or was deliberately skipped —
// exactly one of them, which CheckSlots verifies. The methods in this file
// are the only code that changes the fields; scripts/check.sh greps for it.
//
// The numbering rule is reserve's: slots a run refill staged, then recycled
// numbers last-in-first-out unless the grant must be slot-contiguous, then
// fresh ones. On the serial scheduler slot numbers are mapping-table keys,
// so every sim_* metric and golden byte depends on that order.
type slotLedger struct {
	free   *kernel.Segment
	mem    *phys.Memory
	runLen int64 // slots per extent run (1 when the superpage plane is off)

	listed  []freeSlot     // FIFO
	nListed atomic.Int64   // len(listed), readable from the SPCM's goroutines
	recall  map[resKey]int // reclaimed page -> index in listed

	empty    []int64 // receivable slot numbers, LIFO
	parked   []int64 // start slots of frame-backed runs awaiting an extent fill
	recycled []int64 // start slots of aligned empty runs left by extent fills
	next     int64   // high-water mark for fresh slot numbers
	inflight int64   // reserved, not yet closed
	skipped  int64   // numbers below next passed over for good
	plan     refillPlan

	runBuf []int64
	pfnBuf []phys.PFN
}

// refillPlan shapes the reservations of one source request the manager
// itself has in flight (takeExtentRun, RequestFreshRun).
type refillPlan struct {
	contiguous bool    // skip recycled numbers: the grant must be slot-contiguous
	park       bool    // arriving runs stay parked instead of being listed
	runs       []int64 // recycled runs staged for the request, consumed first
	cursor     int     // staged slots handed out
	fresh      int64   // next when a parking plan opened: its lower numbers are staged ones
}

// reserve1 moves one slot number to in-flight.
func (l *slotLedger) reserve1() int64 {
	l.inflight++
	if p := &l.plan; p.cursor < len(p.runs)*int(l.runLen) {
		s := p.runs[p.cursor/int(l.runLen)] + int64(p.cursor)%l.runLen
		p.cursor++
		return s
	}
	if k := len(l.empty); k > 0 && !l.plan.contiguous {
		s := l.empty[k-1]
		l.empty = l.empty[:k-1]
		return s
	}
	l.next++
	return l.next - 1
}

// release makes in-flight numbers receivable again. A staged slot goes back
// to its run, which endPlan recycles whole, not to the empty list as well.
func (l *slotLedger) release(slots ...int64) {
	l.inflight -= int64(len(slots))
	for _, s := range slots {
		if s < l.plan.fresh {
			l.plan.cursor--
		} else {
			l.empty = append(l.empty, s)
		}
	}
}

// list moves an in-flight slot, now holding fs.frame, to the listed ones.
func (l *slotLedger) list(fs freeSlot) {
	l.inflight--
	if fs.recall {
		l.recall[fs.from] = len(l.listed)
	}
	l.listed = append(l.listed, fs)
	l.nListed.Add(1)
}

// close ends a reservation. With an error nothing arrived and the numbers
// are released; otherwise the frames now at slots are listed — or, under a
// run refill's plan, parked run by run so that unpark hands out the first.
func (l *slotLedger) close(slots []int64, err error) {
	switch n := int(l.runLen); {
	case err != nil:
		l.release(slots...)
	case l.plan.park:
		for j := len(slots) - n; j >= 0; j -= n {
			l.inflight -= l.runLen
			l.parked = append(l.parked, slots[j])
		}
	default:
		for i, pfn := range l.pfnsAt(slots) {
			if pfn == phys.NoFrame {
				panic(fmt.Sprintf("manager: granted slot %d of %v has no frame", slots[i], l.free))
			}
			l.list(freeSlot{slot: slots[i], frame: l.mem.Frame(pfn)})
		}
	}
}

// take moves listed entry i to in-flight: its frame is about to leave.
func (l *slotLedger) take(i int) freeSlot {
	fs := l.listed[i]
	l.forget(i)
	l.inflight++
	l.nListed.Add(-1)
	last := len(l.listed) - 1
	l.listed[i] = l.listed[last]
	l.listed = l.listed[:last]
	if i < last && l.listed[i].recall {
		l.recall[l.listed[i].from] = i
	}
	return fs
}

// unlist empties listed entry i: its frame left for a faulted page.
func (l *slotLedger) unlist(i int) { l.release(l.take(i).slot) }

// unlistSlot is unlist by slot number, for callers that hold no position.
func (l *slotLedger) unlistSlot(slot int64) {
	l.unlist(slices.IndexFunc(l.listed, func(fs freeSlot) bool { return fs.slot == slot }))
}

// forget breaks listed entry i's fast-refault association.
func (l *slotLedger) forget(i int) {
	if fs := &l.listed[i]; fs.recall {
		delete(l.recall, fs.from)
		fs.recall = false
	}
}

// unpark moves the newest parked run to in-flight; recycle or close ends it.
func (l *slotLedger) unpark() (start int64, ok bool) {
	k := len(l.parked)
	if k == 0 {
		return 0, false
	}
	l.inflight += l.runLen
	start, l.parked = l.parked[k-1], l.parked[:k-1]
	return start, true
}

// recycle keeps an in-flight run, emptied by an extent fill, together for a
// later refill instead of scattering its numbers over the empty list.
func (l *slotLedger) recycle(start int64) {
	l.inflight -= l.runLen
	l.recycled = append(l.recycled, start)
}

// flush lists every parked run, oldest first. It runs before anything that
// enumerates or returns listed frames, so withheld runs are never invisible
// to it; the magazine refills on the next extent fault.
func (l *slotLedger) flush() {
	for _, start := range l.parked {
		l.inflight += l.runLen
		l.close(l.run(start), nil)
	}
	l.parked = l.parked[:0]
}

// run expands a run's start slot into its slot numbers (shared scratch).
func (l *slotLedger) run(start int64) []int64 {
	l.runBuf = l.runBuf[:0]
	for i := int64(0); i < l.runLen; i++ {
		l.runBuf = append(l.runBuf, start+i)
	}
	return l.runBuf
}

// pfnsAt resolves the frame numbers at slots in one locked pass (shared
// scratch).
func (l *slotLedger) pfnsAt(slots []int64) []phys.PFN {
	l.pfnBuf = l.free.AppendFirstPFNs(l.pfnBuf[:0], slots)
	return l.pfnBuf
}

// planRuns opens a run refill for up to count runs. Recycled runs are staged
// ahead of fresh numbers, keeping the free segment's page store bounded by
// the working set; a fresh tail starts at next rounded up to run alignment,
// so every run's destination is slot-contiguous and extent-aligned and the
// boot→free migration takes the kernel's extent fast path.
func (l *slotLedger) planRuns(count int) {
	p := &l.plan
	p.contiguous, p.park = true, true
	for k := len(l.recycled); len(p.runs) < count && k > 0; k = len(l.recycled) {
		p.runs, l.recycled = append(p.runs, l.recycled[k-1]), l.recycled[:k-1]
	}
	if rem := l.next & (l.runLen - 1); rem != 0 && len(p.runs) < count {
		l.next += l.runLen - rem
		l.skipped += l.runLen - rem
	}
	p.fresh = l.next
}

// planFresh opens a request whose grant must land on consecutive numbers.
func (l *slotLedger) planFresh() { l.plan.contiguous = true }

// endPlan closes the plan. Consumption is run-granular and front-first, so
// the staged runs past the cursor are still empty: recycle them again.
func (l *slotLedger) endPlan() {
	p, n := &l.plan, int(l.runLen)
	for j := (p.cursor + n - 1) / n; j < len(p.runs); j++ {
		l.recycled = append(l.recycled, p.runs[j])
	}
	l.plan = refillPlan{runs: p.runs[:0]}
}

// Adopt scans the free-page segment for frames migrated in directly (by
// tests or privileged setup code) and adds them to the free list.
func (g *Generic) Adopt() {
	l := &g.slots
	l.flush()
	known := make(map[int64]bool, len(l.listed))
	for _, fs := range l.listed {
		known[fs.slot] = true
	}
	var found []int64
	for _, p := range l.free.Pages() {
		if known[p] {
			continue
		}
		found = append(found, p)
		if i := slices.Index(l.empty, p); i >= 0 {
			l.empty = slices.Delete(l.empty, i, i+1)
		} else if p < l.next {
			l.skipped-- // a number passed over earlier is in use after all
		} else {
			l.skipped += p - l.next
			l.next = p + 1
		}
	}
	l.inflight += int64(len(found))
	l.close(found, nil)
}

// CheckSlots verifies slot conservation: the ledger's lists are pairwise
// disjoint, the slots holding a frame in the free segment are exactly the
// listed and parked ones, FreeFrames is the listed count, the recall index
// names each associated entry, and every number below the high-water mark
// is accounted for. It must run with the manager quiescent.
func (g *Generic) CheckSlots() (err error) {
	l := &g.slots
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("manager %s: slot ledger: "+format, append([]any{g.cfg.Name}, args...)...)
		}
	}
	state := make([]string, l.next) // the list naming each number
	claimed := l.inflight + l.skipped
	claim := func(list string, start, n int64) {
		for s := start; s < start+n; s++ {
			if s < 0 || s >= l.next {
				fail("%s slot %d outside [0, %d)", list, s, l.next)
			} else if state[s] != "" {
				fail("slot %d is both %s and %s", s, state[s], list)
			} else {
				state[s] = list
				claimed++
			}
		}
	}
	recalls := 0
	for i, fs := range l.listed {
		claim("listed", fs.slot, 1)
		if at, ok := l.recall[fs.from]; fs.recall && (!ok || at != i) {
			fail("listed[%d] recalls page %d of %v but the index says %d, %v", i, fs.from.page, fs.from.seg, at, ok)
		} else if fs.recall {
			recalls++
		}
	}
	for _, start := range l.parked {
		claim("parked", start, l.runLen)
	}
	for _, s := range l.empty {
		claim("empty", s, 1)
	}
	for _, start := range l.recycled {
		claim("recycled", start, l.runLen)
	}
	held := l.free.Pages()
	for _, p := range held {
		if p >= l.next || (state[p] != "listed" && state[p] != "parked") {
			fail("slot %d holds a frame but is neither listed nor parked", p)
		}
	}
	if want := len(l.listed) + len(l.parked)*int(l.runLen); len(held) != want || g.FreeFrames() != len(l.listed) {
		fail("%d listed (FreeFrames %d) and parked slots, %d frames in the free segment", want, g.FreeFrames(), len(held))
	}
	if recalls != len(l.recall) || claimed != l.next {
		fail("%d of %d recall entries and %d of %d slot numbers accounted for (%d in flight, %d skipped)",
			recalls, len(l.recall), claimed, l.next, l.inflight, l.skipped)
	}
	return err
}
