package manager

import "epcm/internal/kernel"

// mruPolicy is the classic database scan-replacement policy: evict the most
// recently used page — the highest-numbered resident page here, since scans
// proceed in page order. For cyclic sequential scans larger than memory it
// is dramatically better than LRU/clock, which evicts exactly the page the
// scan will want next, and it is precisely the kind of application
// knowledge the paper argues only the application's own manager can apply.
//
// It keeps no state and issues no charged kernel call: each Victim walks
// the resident list reading flags straight off the segment. It is not
// registered — it is an application's policy, not a system-wide choice.
type mruPolicy struct{}

// NewMRUPolicy returns the MRU scan-replacement policy.
func NewMRUPolicy() Policy { return mruPolicy{} }

func (mruPolicy) PolicyName() string        { return "mru" }
func (mruPolicy) Insert(PolicyHost, PageID) {}
func (mruPolicy) Touch(PolicyHost, PageID)  {}
func (mruPolicy) Remove(PolicyHost, PageID) {}

// Victim returns the highest-numbered page that is present, unpinned and
// admitted by the pass's constraint; ties go to the first in resident order.
func (mruPolicy) Victim(h PolicyHost) (PageID, kernel.PageFlags, bool, error) {
	var best PageID
	var bestFlags kernel.PageFlags
	found := false
	for i, n := 0, h.ResidentLen(); i < n; i++ {
		id := h.ResidentAt(i)
		if found && id.Page <= best.Page {
			continue
		}
		flags, ok := id.Seg.Flags(id.Page)
		if !ok || flags.Has(kernel.FlagPinned) || !h.Admits(id) {
			continue
		}
		best, bestFlags, found = id, flags, true
	}
	return best, bestFlags, found, nil
}
