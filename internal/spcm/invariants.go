package spcm

import (
	"fmt"
	"math"
)

// CheckInvariants verifies the market and frame-ownership invariants that
// must hold across any injected fault schedule. It is callable from any
// test (the chaos suite runs it after every scenario):
//
//  1. Frame conservation: every physical frame is held by exactly one
//     segment and the kernel's ownership records agree (kernel check).
//  2. Free-pool sanity: no boot page appears twice in the SPCM free pool,
//     and every pooled page is actually present in the boot segment.
//  3. Dram conservation, per account: drams earned equal drams held
//     (balance) plus drams spent on rent, tax and I/O, within floating-
//     point tolerance.
//  4. Slot conservation, per account: the manager's ledger of its free-page
//     segment accounts for every slot number once (manager.CheckSlots).
func (s *SPCM) CheckInvariants() error {
	if err := s.k.CheckFrameConservation(); err != nil {
		return fmt.Errorf("spcm invariant: %w", err)
	}
	pool := s.free.Snapshot()
	accts := s.ordered()
	// Frames parked in account frame caches are part of the free pool for
	// conservation purposes; CheckInvariants runs quiescent, so snapshotting
	// the single-owner caches — and reading each manager's slot ledger —
	// from here is safe.
	for _, a := range accts {
		if a.cache != nil {
			pool = append(pool, a.cache.Snapshot()...)
		}
		if err := a.mgr.CheckSlots(); err != nil {
			return fmt.Errorf("spcm invariant: %w", err)
		}
	}
	seen := make(map[int64]bool, len(pool))
	for _, p := range pool {
		if seen[p] {
			return fmt.Errorf("spcm invariant: boot page %d pooled twice", p)
		}
		seen[p] = true
		if !s.k.BootSegment().HasPage(p) {
			return fmt.Errorf("spcm invariant: pooled boot page %d not in boot segment", p)
		}
	}
	for _, a := range accts {
		a.mu.Lock()
		spent := a.rentPaid + a.taxPaid + a.ioPaid
		diff := math.Abs(a.earned - spent - a.balance)
		tol := 1e-6 * math.Max(1, math.Abs(a.earned))
		name, earned, balance := a.name, a.earned, a.balance
		a.mu.Unlock()
		if diff > tol {
			return fmt.Errorf("spcm invariant: account %q drams leak: earned %.9g != balance %.9g + spent %.9g (diff %.3g)",
				name, earned, balance, spent, diff)
		}
	}
	return nil
}
