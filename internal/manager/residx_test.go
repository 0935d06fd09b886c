package manager

import (
	"testing"

	"epcm/internal/kernel"
	"epcm/internal/phys"
	"epcm/internal/sim"
)

func residxTestSegs(t *testing.T, n int) []*kernel.Segment {
	t.Helper()
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 1 << 20})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	segs := make([]*kernel.Segment, n)
	for i := range segs {
		s, err := k.CreateSegment("residx-test", 1)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = s
	}
	return segs
}

// TestResidentIndexBasics pins the single-threaded contract the manager's
// clock bookkeeping relies on: put/get/del round-trips across the dense
// prefix, the grown prefix, and the sparse spill, plus dropSeg.
func TestResidentIndexBasics(t *testing.T) {
	segs := residxTestSegs(t, 2)
	x := newResidentIndex()
	cases := []int64{0, 1, posDenseDirect - 1, posDenseDirect + 5, posDenseMax + 100}
	for i, page := range cases {
		k := resKey{seg: segs[0], page: page}
		x.put(k, i)
		if got, ok := x.get(k); !ok || got != i {
			t.Fatalf("get(page %d) = %d,%v want %d,true", page, got, ok, i)
		}
	}
	if _, ok := x.get(resKey{seg: segs[1], page: 0}); ok {
		t.Fatal("foreign segment reported present")
	}
	for _, page := range cases {
		k := resKey{seg: segs[0], page: page}
		x.del(k)
		if _, ok := x.get(k); ok {
			t.Fatalf("page %d present after del", page)
		}
	}
	x.put(resKey{seg: segs[1], page: 3}, 7)
	x.dropSeg(segs[1])
	if _, ok := x.get(resKey{seg: segs[1], page: 3}); ok {
		t.Fatal("page present after dropSeg")
	}
}

// TestResidentIndexPresize: a presized index must cover the hinted range
// with its dense prefix immediately (no growth on first put).
func TestResidentIndexPresize(t *testing.T) {
	segs := residxTestSegs(t, 1)
	x := newResidentIndex()
	x.presize(10000)
	k := resKey{seg: segs[0], page: 9999}
	x.put(k, 42)
	if n := len(x.slots(segs[0]).dense); n < 10000 {
		t.Fatalf("dense prefix not presized: %d cells", n)
	}
	if got, ok := x.get(k); !ok || got != 42 {
		t.Fatalf("get = %d,%v want 42,true", got, ok)
	}
}

// TestResidentIndexGrowOverSpill: a page that spilled to the sparse map
// must stay indexed when later doublings of the dense prefix cover it.
func TestResidentIndexGrowOverSpill(t *testing.T) {
	segs := residxTestSegs(t, 1)
	x := newResidentIndex()
	for page := int64(0); page < posDenseDirect; page++ {
		x.put(resKey{seg: segs[0], page: page}, 0) // dense prefix of posDenseDirect
	}
	far := resKey{seg: segs[0], page: 3 * posDenseDirect}
	x.put(far, 1) // beyond twice the prefix: spills
	for _, page := range []int64{posDenseDirect, 2 * posDenseDirect} {
		x.put(resKey{seg: segs[0], page: page}, 2) // each doubles the prefix
	}
	if n := len(x.slots(segs[0]).dense); n <= int(far.page) {
		t.Fatalf("dense prefix %d does not cover page %d", n, far.page)
	}
	if got, ok := x.get(far); !ok || got != 1 {
		t.Fatalf("get(spilled page) = %d,%v want 1,true", got, ok)
	}
	x.del(far)
	if _, ok := x.get(far); ok {
		t.Fatal("spilled page present after del")
	}
}
