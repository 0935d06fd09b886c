package manager

// raceEnabled is set under -race (race_test.go), whose runtime allocates on
// paths that allocate nothing in a normal build.
var raceEnabled bool

// RaceEnabled reports whether the tests run under -race.
func RaceEnabled() bool { return raceEnabled }

// NextSlots reports the slot numbers g's next reservation of n would pick
// outside a refill plan: recycled numbers last-in-first-out, then fresh ones.
func NextSlots(g *Generic, n int) []int64 {
	var out []int64
	for k := len(g.slots.empty) - 1; k >= 0 && len(out) < n; k-- {
		out = append(out, g.slots.empty[k])
	}
	for s := g.slots.next; len(out) < n; s++ {
		out = append(out, s)
	}
	return out
}

// NextRefillSlot reports the first slot g's next run refill would reserve:
// the newest recycled run, else the high-water mark rounded up to a run.
func NextRefillSlot(g *Generic) int64 {
	l := &g.slots
	if k := len(l.recycled); k > 0 {
		return l.recycled[k-1]
	}
	return (l.next + l.runLen - 1) &^ (l.runLen - 1)
}

// FramesLeft reports how many frames remain in the pool.
func (p *FixedPool) FramesLeft() int { return p.Donor.PageCount() }
