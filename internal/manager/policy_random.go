package manager

import (
	"epcm/internal/kernel"
	"epcm/internal/sim"
)

// randomPolicy evicts a uniformly random resident page. Random replacement
// is the memoryless baseline: no bookkeeping at all (Insert, Touch and
// Remove are no-ops — the manager's resident list is the only state), and
// its expected hit rate under the independent reference model is what every
// smarter policy has to beat. Sampling uses the simulation's deterministic
// splitmix64 RNG with a fixed seed, so runs reproduce exactly; a bounded
// number of random probes skips ineligible pages (pinned, wrong frame
// constraint), after which a deterministic sweep guarantees any eligible
// victim is still found.
type randomPolicy struct {
	rng *sim.RNG
}

// NewRandomPolicy returns a uniform-random replacement policy.
func NewRandomPolicy() Policy { return &randomPolicy{rng: sim.NewRNG(0x9e3779b97f4a7c15)} }

func init() { RegisterPolicy("random", NewRandomPolicy) }

func (p *randomPolicy) PolicyName() string { return "random" }

// Insert, Touch and Remove keep no state: the host's resident list is the
// whole candidate set.
func (p *randomPolicy) Insert(_ PolicyHost, _ PageID) {}
func (p *randomPolicy) Touch(_ PolicyHost, _ PageID)  {}
func (p *randomPolicy) Remove(_ PolicyHost, _ PageID) {}

// victimAt checks one resident-list position; returns ok when the page
// there is an eligible victim.
func (p *randomPolicy) victimAt(h PolicyHost, i int) (PageID, kernel.PageFlags, bool, error) {
	id := h.ResidentAt(i)
	a, err := h.Sample(id)
	if err != nil {
		return PageID{}, 0, false, err
	}
	if !a.Present {
		h.Forget(id)
		return PageID{}, 0, false, nil
	}
	if a.Flags.Has(kernel.FlagPinned) || !h.Admits(id) {
		return PageID{}, 0, false, nil
	}
	return id, a.Flags, true, nil
}

func (p *randomPolicy) Victim(h PolicyHost) (PageID, kernel.PageFlags, bool, error) {
	n := h.ResidentLen()
	if n == 0 {
		return PageID{}, 0, false, nil
	}
	// Random probes, bounded so a heavily pinned resident set cannot spin:
	// the charged samples stay within the clock policy's 2x-resident
	// budget. Forget during a probe shrinks the list, so re-read the
	// length each round.
	for try := 0; try < 2*n; try++ {
		l := h.ResidentLen()
		if l == 0 {
			return PageID{}, 0, false, nil
		}
		id, flags, ok, err := p.victimAt(h, p.rng.Intn(l))
		if ok || err != nil {
			return id, flags, ok, err
		}
	}
	// Deterministic fallback sweep: random probing missed (or everything
	// random chose was ineligible) — scan the resident list once so an
	// eligible victim, if one exists, is always found.
	for i := 0; i < h.ResidentLen(); {
		before := h.ResidentLen()
		id, flags, ok, err := p.victimAt(h, i)
		if ok || err != nil {
			return id, flags, ok, err
		}
		if h.ResidentLen() == before {
			i++ // Forget swap-removes; only advance when the list kept its size
		}
	}
	return PageID{}, 0, false, nil
}
