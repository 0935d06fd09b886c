package core

import (
	"epcm/internal/kernel"
	"epcm/internal/manager"
)

// appPolicies are replacement policies of the kind an application writes
// for its own manager and hands over in manager.Config.Policy, outside
// manager.NewPolicy's table: strict arrival order (fifo) and sampled
// recency (lru). The policy tests run them beside the named policies, so
// the Config.Policy seam is exercised — under both schedulers, crash and
// adoption included — by policies that keep page structures of their own.
var appPolicies = []policyCase{
	{"fifo", func() manager.Policy { return &queuePolicy{name: "fifo"} }},
	{"lru", func() manager.Policy { return &queuePolicy{name: "lru", recency: true} }},
}

// queuePolicy evicts from the old end of a queue of resident pages. Without
// recency the queue is arrival order and nothing reorders it. With recency,
// a Touch or a set reference bit (which Victim clears: the second chance)
// moves the page to the new end.
type queuePolicy struct {
	name    string
	recency bool
	order   []manager.PageID // oldest first
}

func (q *queuePolicy) PolicyName() string { return q.name }

func (q *queuePolicy) Insert(_ manager.PolicyHost, id manager.PageID) {
	if q.find(id) < 0 {
		q.order = append(q.order, id)
	}
}

func (q *queuePolicy) Touch(_ manager.PolicyHost, id manager.PageID) {
	if i := q.find(id); i >= 0 && q.recency {
		q.toBack(i)
	}
}

func (q *queuePolicy) Remove(_ manager.PolicyHost, id manager.PageID) {
	if i := q.find(id); i >= 0 {
		q.order = append(q.order[:i], q.order[i+1:]...)
	}
}

func (q *queuePolicy) Victim(h manager.PolicyHost) (manager.PageID, kernel.PageFlags, bool, error) {
	// Pages the pass cannot take keep their place; the step budget bounds
	// the walk as the clock's 2×resident sweep does.
	for i, steps := 0, 2*len(q.order); i < len(q.order) && steps > 0; steps-- {
		id := q.order[i]
		a, err := h.Sample(id)
		if err != nil {
			return manager.PageID{}, 0, false, err
		}
		switch {
		case !a.Present:
			h.Forget(id) // fires Remove, which drops order[i]
		case a.Flags.Has(kernel.FlagPinned) || !h.Admits(id):
			i++
		case q.recency && a.Flags.Has(kernel.FlagReferenced):
			if err := h.ClearReferenced(id); err != nil {
				return manager.PageID{}, 0, false, err
			}
			q.toBack(i)
		default:
			return id, a.Flags, true, nil
		}
	}
	return manager.PageID{}, 0, false, nil
}

func (q *queuePolicy) find(id manager.PageID) int {
	for i, p := range q.order {
		if p == id {
			return i
		}
	}
	return -1
}

func (q *queuePolicy) toBack(i int) {
	id := q.order[i]
	q.order = append(append(q.order[:i], q.order[i+1:]...), id)
}
