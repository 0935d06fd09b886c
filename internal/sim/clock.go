// Package sim provides the simulation substrate used by every other package
// in this repository: a virtual clock, a deterministic pseudo-random number
// generator, a machine cost model calibrated to the paper's DECstation
// 5000/200 measurements, response-time statistics, and a process-oriented
// discrete-event scheduler.
//
// The paper (Harty & Cheriton, ASPLOS 1992) measures real hardware; we
// cannot control physical page frames from Go, so all experiments run on
// virtual time. Durations are expressed with time.Duration but never touch
// the wall clock, so every run is exactly reproducible.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a virtual clock. It only moves when some simulated activity
// charges time to it. The zero value is a clock at time zero, ready for one
// charger at a time; call Share before a second starts.
//
// The time is a Striped counter (striped.go), so once shared, concurrent
// chargers — one per manager under the kernel's concurrent scheduler —
// advance it on their own cache lines. Now sums the stripes: the time read
// is exactly the total charged, and with one charger the sequence of times
// is a plain counter's.
type Clock struct {
	now Striped // nanoseconds
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Share makes every later charge atomic on its key's stripe, and Shared
// reports whether it has been called (Striped.Share).
func (c *Clock) Share()       { c.now.Share() }
func (c *Clock) Shared() bool { return c.now.shared }

// Advance moves the clock forward by d on stripe 0 — the call for a clock
// with one charger at a time, such as a DES shard's. Advancing by a negative
// duration panics: virtual time never runs backwards.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 || c.now.shared {
		c.advanceShared(0, d)
		return
	}
	c.now.c[0].n += int64(d)
}

// AdvanceOn moves the clock forward by d on the stripe key selects. Chargers
// that may run concurrently pass a key that names the charger (the kernel:
// the segment ID of the page the charge concerns); it never affects the time.
func (c *Clock) AdvanceOn(key uint64, d time.Duration) {
	// Striped.Add spelled out, as in Advance: the method call puts either
	// body over the inlining budget. The rare arms are out of line.
	if d < 0 || c.now.shared {
		c.advanceShared(key, d)
		return
	}
	c.now.c[0].n += int64(d)
}

// advanceShared is Advance and AdvanceOn's out-of-line arm: a negative
// duration panics, a shared clock charges atomically.
//
//go:noinline
func (c *Clock) advanceShared(key uint64, d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative duration %v", d))
	}
	atomic.AddInt64(&c.now.c[key&(Stripes-1)].n, int64(d))
}

// AdvanceTo moves the clock forward to t. It panics if t is in the past. It
// is the clock owner's call (a DES dispatch loop): charges racing with it
// are never lost, but land on top of t.
func (c *Clock) AdvanceTo(t time.Duration) {
	now := c.Now()
	if t < now {
		panic(fmt.Sprintf("sim: clock moved backwards from %v to %v", now, t))
	}
	c.now.Add(0, int64(t-now))
}

// Reset returns the clock to time zero. The owner's call, made while
// nothing charges the clock.
func (c *Clock) Reset() { c.now.Store(0) }
