package sim

import "time"

// refClock is the clock as one plain word — what Clock was before it was
// striped, minus the atomics. FuzzClock replays one script on both.
type refClock struct{ now int64 }

func (c *refClock) Now() time.Duration { return time.Duration(c.now) }

func (c *refClock) Advance(d time.Duration) {
	if d < 0 {
		panic("sim: clock advanced by negative duration")
	}
	c.now += int64(d)
}

// AdvanceOn ignores the key: placement is not part of the clock's meaning.
func (c *refClock) AdvanceOn(_ uint64, d time.Duration) { c.Advance(d) }

func (c *refClock) AdvanceTo(t time.Duration) {
	if int64(t) < c.now {
		panic("sim: clock moved backwards")
	}
	c.now = int64(t)
}

func (c *refClock) Reset() { c.now = 0 }
