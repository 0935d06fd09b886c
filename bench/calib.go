package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Host timings are reported calibrated: wall time divided by the wall time
// of a fixed reference loop run immediately before and after the measured
// interval, times that loop's nominal duration. The reference host is a
// shared 2-vCPU VM whose speed for this kind of code (hash probes, pointer
// stores, locks, atomics, cache misses) drifts by 20-70 % for minutes at a
// time while a pure-ALU loop does not move; two sets of ten 15 s runs a
// quarter of an hour apart differed by 9-24 % in raw ns/op and 21-30 % in raw
// set-up time. The reference loop slows by the same factor at the same
// moment, so the ratio holds: over thirty 5 s runs in a noisy quarter of an
// hour the raw ns/op had an inter-quartile spread of 8-21 % of its median, the
// calibrated ns/op 2.5-5.6 %.
//
// The loop is part of the benchmark, not of the program: it imports nothing
// from internal/, so no change to the simulator can move it. It allocates
// nothing and uses no Go map, whose per-process hash seed alone moved an
// earlier version by 15 % from one process to the next. It is deliberately
// run cold (whatever ran before has evicted its 1.2 MB): a second, warm pass
// tracked the host's drift only half as well.

const (
	calibSlots = 8192 // open-addressing table, half full
	calibKeys  = 4096
	calibPool  = 16384 // nodes handed out round-robin
	calibIters = 16384
	// calibNominal is the loop's duration on the reference host when it is
	// quiet, so a calibrated nanosecond is a wall nanosecond there.
	calibNominal = 500e3 // ns
)

type calibNode struct {
	next *calibNode
	key  uint64
	pad  [4]uint64
}

type calibrator struct {
	keys  [calibSlots]uint64
	vals  [calibSlots]*calibNode
	pool  [calibPool]calibNode
	stack []*calibNode
	mu    sync.Mutex
	ctr   atomic.Int64
}

func newCalibrator() *calibrator {
	c := &calibrator{stack: make([]*calibNode, 0, 512)}
	for k := uint64(1); k <= calibKeys; k++ {
		i := c.slot(k)
		for c.keys[i] != 0 {
			i = (i + 1) & (calibSlots - 1)
		}
		c.keys[i], c.vals[i] = k, &calibNode{key: k}
	}
	return c
}

func (c *calibrator) slot(k uint64) int { return int((k * 0x9e3779b97f4a7c15) >> (64 - 13)) }

// sample runs the reference loop once, the same work every time, and returns
// its wall time in nanoseconds.
func (c *calibrator) sample() float64 {
	x := uint64(88172645463325252)
	next := 0
	var head *calibNode
	start := time.Now()
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x&(calibKeys-1) + 1
		at := c.slot(k)
		for c.keys[at] != k {
			at = (at + 1) & (calibSlots - 1)
		}
		n := c.vals[at]
		c.mu.Lock()
		n.pad[i&3] += x
		c.mu.Unlock()
		c.ctr.Add(1)
		nn := &c.pool[next]
		next = (next + 1) & (calibPool - 1)
		nn.next, nn.key = head, k
		head = nn
		if i&63 == 63 {
			head = nil
		}
		c.stack = append(c.stack, n)
		if len(c.stack) > 256 {
			c.stack = c.stack[:0]
		}
		n.next = nn
		c.vals[at] = n
	}
	return float64(time.Since(start).Nanoseconds())
}

// around runs fn between two samples of the reference loop and returns
// their mean.
func (c *calibrator) around(fn func()) float64 {
	before := c.sample()
	fn()
	return (before + c.sample()) / 2
}

// calibrated converts a wall time measured next to reference-loop time ref
// into calibrated time.
func calibrated(wall, ref float64) float64 { return wall * calibNominal / ref }
