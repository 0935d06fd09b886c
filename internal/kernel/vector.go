package kernel

import (
	"errors"
	"fmt"

	"epcm/internal/plane"
)

// Fault delivery. Every fault reaches its manager as part of a run: the
// faults one delivery carries. The serial scheduler, and a concurrent lane
// that finds nothing queued behind the fault it is handling, deliver runs
// of one. A lane executor that drains its ring and finds several faults
// queued for the manager hands them over as ONE vectored upcall — the
// paper's trap+upcall cost argument applied end-to-end: the per-delivery
// legs (one Trap, one delivery charge, one return charge, one ManagerCalls
// tick) are paid once per run, while the per-fault legs (fault-kind stats,
// injection, the resolution itself) are still paid per fault. A run of one
// therefore charges exactly the paper's single-fault sequence, which is
// what keeps the golden output independent of the scheduler.
//
// Crash semantics mid-run: faults the interceptor drops are answered nil
// before the manager ever sees the run. If the manager crashes — in the
// interceptor or while handling — the whole run is answered nil after
// revocation: none of its faults were resolved past the kernel's own
// bookkeeping (a fault the manager did resolve before dying left its page
// present, so the retry is absorbed by the page-present check; an
// unresolved fault re-faults against the adopting manager). No fault is
// lost and none can double-resolve: resolution is MigratePages into the
// faulted page, which the kernel rejects with ErrPageBusy if run twice.

// VectorHandler is the optional Manager extension for vectored delivery.
// The kernel calls HandleFaultVector with a run of at least two faults
// for this manager and a parallel result slice, all entries nil. The
// handler stores each fault's outcome in errs[i] — the same values
// HandleFault would return, including ErrManagerCrashed for a mid-run
// death. Both slices are kernel-owned scratch; implementations must not
// retain them. Runs of one, and every run for a manager that does not
// implement VectorHandler, arrive as HandleFault calls in order, still
// under the run's single set of delivery charges.
type VectorHandler interface {
	HandleFaultVector(fs []Fault, errs []error)
}

// faultRunLen reports how many envelopes from the front of envs form one
// run: the consecutive msgFault messages, or 0 when the head is not a fault
// and goes through process(). Pure — run assembly is a function of ring
// contents alone, which is what keeps it deterministic. A run is bounded by
// what one PopMany hands the executor, i.e. by laneDrainBatch.
func faultRunLen(envs []plane.Envelope[delivery]) int {
	n := 0
	for n < len(envs) && envs[n].Msg.kind == msgFault {
		n++
	}
	return n
}

// replyRun answers envs[i]'s poster with errs[i] — or, given no errs, every
// poster with nil, a lost delivery — and drops the envelopes' references.
func replyRun(envs []plane.Envelope[delivery], errs []error) {
	for i := range envs {
		if reply := envs[i].Msg.reply; reply != nil {
			if errs != nil {
				reply <- errs[i]
			} else {
				reply <- nil
			}
		}
		envs[i] = plane.Envelope[delivery]{}
	}
}

// processFaultRun is the delivery path of a run of faults fs for the manager
// of record c: statistics, the trap cost, the injection interceptor, the
// delivery cost for the manager's mode, the handler, crash containment, and
// the return cost — per-fault legs inside the loops, per-delivery legs
// outside them.
// It leaves fs[i]'s outcome in errs[i]: nil for a resolved fault and for a
// lost delivery (dropped, or the manager crashed and was revoked), where
// the faulting process simply re-faults. fs is consumed — survivors of the
// interceptor are compacted to its front for the handler, with idx, scratch
// of the same length, recording where each came from. fs and errs reach
// the handler through an interface, so callers keep them off the stack.
// The per-delivery legs are charged on the stripe of the run's first
// segment: a lane's faults all come from its own manager's segments.
func (k *Kernel) processFaultRun(c *managerCell, fs []Fault, errs []error, idx []int) {
	m, seg := c.m, fs[0].Seg.id
	k.stats.ManagerCalls.Add(uint64(seg), 1)
	vectored := len(fs) > 1
	if vectored {
		k.stats.VectoredBatches.Add(1)
	}
	k.clock.AdvanceOn(uint64(seg), k.cost.Trap)
	nf := 0 // survivors, compacted into fs[:nf]
	for i, f := range fs {
		errs[i] = nil
		k.stats.Faults.Add(uint64(f.Seg.id), 1)
		switch f.Kind {
		case FaultMissing:
			k.stats.MissingFaults.Add(uint64(f.Seg.id), 1)
		case FaultProtection:
			k.stats.ProtFaults.Add(uint64(f.Seg.id), 1)
		case FaultCopyOnWrite:
			k.stats.COWFaults.Add(uint64(f.Seg.id), 1)
		}
		if k.interceptor != nil {
			switch r := k.interceptor(f, m); {
			case r.Crash:
				// The manager process died before fielding the run. Revoke
				// it; nothing was handled, so every fault is a lost delivery
				// and the retry loops re-deliver to the default manager.
				// Only if no fallback exists does the crash surface — on
				// this fault, the ones behind it and the survivors before it
				// (faults already dropped stay dropped).
				if _, rerr := k.Revoke(m); rerr != nil {
					err := pageError(fmt.Errorf("%w: %q: %w", ErrManagerCrashed, m.ManagerName(), rerr), f.Seg, f.Page)
					for j := i; j < len(errs); j++ {
						errs[j] = err
					}
					for _, j := range idx[:nf] {
						errs[j] = err
					}
				}
				return
			case r.Drop:
				// The delivery was lost; the faulting process just re-faults.
				k.stats.DroppedDeliveries.Add(1)
				continue
			case r.Delay > 0:
				k.stats.DelayedDeliveries.Add(1)
				k.clock.AdvanceOn(uint64(f.Seg.id), r.Delay)
			}
		}
		fs[nf], idx[nf] = f, i
		nf++
	}
	if nf == 0 {
		return // everything dropped; the Trap was still paid
	}
	if vectored {
		k.stats.VectoredFaults.Add(int64(nf))
	}
	k.chargeDelivery(seg, m.Delivery())
	var vh VectorHandler
	if nf > 1 {
		vh, _ = m.(VectorHandler)
	}
	if vh != nil {
		vh.HandleFaultVector(fs[:nf], errs[:nf])
	} else {
		for j, f := range fs[:nf] {
			errs[j] = m.HandleFault(f)
		}
	}
	resumed := false
	for j, err := range errs[:nf] {
		switch {
		case err == nil:
			resumed = true
		case errors.Is(err, ErrManagerCrashed):
			// The manager died mid-handling. Revoke it and answer the whole
			// run as lost deliveries (resolved faults re-fault into the
			// page-present check, unresolved ones re-fault to the adopter);
			// only if no fallback exists does the crash surface, per fault.
			if _, rerr := k.Revoke(m); rerr == nil {
				clear(errs)
				return
			}
			fallthrough
		default:
			errs[j] = fmt.Errorf("%w: %q on %v: %w", ErrManagerFailed, m.ManagerName(), fs[j], err)
		}
	}
	// One return leg for the run: the upcall returns to the kernel once
	// however many faults it carried, and resumes whoever was resolved — a
	// run in which every fault failed resumes nobody.
	if resumed {
		k.chargeReturn(seg, m.Delivery())
	}
	// Scatter the survivors' outcomes back to their positions. idx ascends
	// with idx[j] >= j, so walking down never overwrites an unread outcome.
	for j := nf - 1; j >= 0; j-- {
		if i := idx[j]; i != j {
			errs[i], errs[j] = errs[j], nil
		}
	}
}
