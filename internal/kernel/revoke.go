package kernel

import (
	"fmt"
	"sort"
	"time"
)

// This file implements the kernel's containment path for failed segment
// managers. The paper argues external page-cache management is safe because
// a misbehaving manager only hurts itself (§2.3); the missing half of that
// argument is what happens to its segments when it dies. Here the kernel
// revokes the dead manager — SetSegmentManager fallback to the default
// manager for every segment it held — so in-flight faults are re-delivered
// to a live manager and no frame is orphaned.

// InterceptResult tells the kernel what to do with one fault delivery. The
// zero value means "deliver normally".
type InterceptResult struct {
	// Drop loses the delivery: the manager never sees the fault. The
	// kernel's Access retry loop re-faults, so a dropped delivery costs a
	// retry (and enough drops in a row surface as ErrFaultLoop) — the
	// lost-upcall failure mode of a separate-process manager.
	Drop bool
	// Delay charges extra virtual time before the delivery proceeds — a
	// slow or scheduling-starved manager process.
	Delay time.Duration
	// Crash kills the manager before it sees the fault: the kernel revokes
	// it and the retry loop re-delivers the fault to the default manager.
	Crash bool
}

// DeliveryInterceptor sees every fault delivery before the manager does.
// The fault plane installs one to inject drops, delays and crashes; nil
// (the default) costs a single branch on the fault path.
type DeliveryInterceptor func(f Fault, m Manager) InterceptResult

// SetInterceptor installs (or, with nil, removes) the delivery interceptor.
func (k *Kernel) SetInterceptor(fn DeliveryInterceptor) { k.interceptor = fn }

// SetDefaultManager registers the manager segments fall back to when their
// own manager is revoked (the paper's default manager, which "provides the
// standard virtual memory" for processes without their own policy).
func (k *Kernel) SetDefaultManager(m Manager) { k.defaultMgr = m }

// OnRevoke registers a callback invoked after a revocation reassigns
// segments, with the dead manager and its adopted segments (ascending ID
// order). The system layer uses it to tell the default manager about its
// new segments and the SPCM to reclaim the dead manager's free pages.
func (k *Kernel) OnRevoke(fn func(dead Manager, adopted []*Segment)) { k.onRevoke = fn }

// Revoke declares a manager dead and reassigns every segment it managed to
// the default manager, returning the adopted segments in ascending ID
// order. It fails with ErrNoFallback when no distinct default manager
// exists — the kernel cannot contain a crash of the fallback itself.
//
// After reassigning, the dead manager's queued plane messages are
// discarded (Scheduler.revoke): each pending delivery is answered as lost,
// so the faulting processes retry and re-resolve to the adopting manager.
// The manager's record goes with it, so the kernel keeps no reference to
// the dead manager. The onRevoke callback
// runs with no kernel lock held — it reaches into the SPCM and the default
// manager.
func (k *Kernel) Revoke(dead Manager) ([]*Segment, error) {
	if k.defaultMgr == nil || dead == Manager(k.defaultMgr) {
		return nil, fmt.Errorf("%w (revoking %q)", ErrNoFallback, dead.ManagerName())
	}
	k.stats.Revocations.Add(1)
	k.mgrMu.Lock()
	dc := k.managers[dead]
	delete(k.managers, dead)
	k.mgrMu.Unlock()
	def := k.cellOf(k.defaultMgr)
	var adopted []*Segment
	k.mu.RLock()
	for _, s := range k.segs {
		s.lock()
		if dc != nil && s.manager.Load() == dc && !s.deleted {
			// The fallback path of SetSegmentManager, without charging the
			// dead manager's process for a call it cannot make. Adoption
			// demotes every promoted extent — the adopter's promotion state
			// starts cold, and the dead manager may have died mid-promotion.
			k.dropAllExtentsLocked(s)
			s.manager.Store(def)
			adopted = append(adopted, s)
		}
		s.unlock()
	}
	k.mu.RUnlock()
	sort.Slice(adopted, func(i, j int) bool { return adopted[i].id < adopted[j].id })
	k.stats.RevokedSegments.Add(int64(len(adopted)))
	if dc != nil {
		k.sched.revoke(dc)
	}
	if k.onRevoke != nil {
		k.onRevoke(dead, adopted)
	}
	return adopted, nil
}
