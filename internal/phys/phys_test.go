package phys

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func testMemory() *Memory {
	return NewMemory(Config{FrameSize: 4096, TotalBytes: 1 << 20, Nodes: 4, CacheColors: 8, StoreData: true})
}

func TestMemoryGeometry(t *testing.T) {
	m := testMemory()
	if m.NumFrames() != 256 {
		t.Fatalf("NumFrames = %d, want 256", m.NumFrames())
	}
	if m.FrameSize() != 4096 {
		t.Fatalf("FrameSize = %d", m.FrameSize())
	}
	if m.TotalBytes() != 1<<20 {
		t.Fatalf("TotalBytes = %d", m.TotalBytes())
	}
	if m.Nodes() != 4 || m.Colors() != 8 {
		t.Fatalf("Nodes=%d Colors=%d", m.Nodes(), m.Colors())
	}
}

func TestFramePhysAddrAndColor(t *testing.T) {
	m := testMemory()
	for pfn := 0; pfn < m.NumFrames(); pfn++ {
		f := m.Frame(PFN(pfn))
		if f.PFN() != PFN(pfn) {
			t.Fatalf("frame %d reports pfn %d", pfn, f.PFN())
		}
		if f.PhysAddr() != int64(pfn)*4096 {
			t.Fatalf("frame %d phys addr %d", pfn, f.PhysAddr())
		}
		if f.Color() != pfn%8 {
			t.Fatalf("frame %d color %d, want %d", pfn, f.Color(), pfn%8)
		}
	}
}

func TestFrameNodeStriping(t *testing.T) {
	m := testMemory()
	// 256 frames over 4 nodes: 64 contiguous frames per node.
	if m.Frame(0).Node() != 0 || m.Frame(63).Node() != 0 {
		t.Fatal("first extent should be node 0")
	}
	if m.Frame(64).Node() != 1 || m.Frame(255).Node() != 3 {
		t.Fatalf("striping wrong: f64=%d f255=%d", m.Frame(64).Node(), m.Frame(255).Node())
	}
}

func TestFrameDataLazyAndZero(t *testing.T) {
	m := testMemory()
	f := m.Frame(10)
	d := f.Data()
	if len(d) != 4096 {
		t.Fatalf("data len %d", len(d))
	}
	d[0] = 0xAB
	f.Zero()
	if f.Data()[0] != 0 {
		t.Fatal("Zero did not clear data")
	}
}

func TestFrameCopyFrom(t *testing.T) {
	m := testMemory()
	src, dst := m.Frame(1), m.Frame(2)
	src.Data()[100] = 42
	dst.CopyFrom(src)
	if dst.Data()[100] != 42 {
		t.Fatal("CopyFrom did not copy data")
	}
	// Copying from an untouched frame must read as zeros even if the
	// destination had old contents.
	dst.Data()[100] = 7
	dst.CopyFrom(m.Frame(3))
	if dst.Data()[100] != 0 {
		t.Fatal("CopyFrom(untouched) should zero the destination")
	}
}

func TestMetadataOnlyMemory(t *testing.T) {
	m := NewMemory(Config{FrameSize: 4096, TotalBytes: 1 << 30, StoreData: false})
	if m.NumFrames() != 262144 {
		t.Fatalf("NumFrames = %d", m.NumFrames())
	}
	if m.Frame(1000).Data() != nil {
		t.Fatal("metadata-only frame returned data")
	}
	// Zero and CopyFrom must be no-ops, not crashes.
	m.Frame(1).Zero()
	m.Frame(1).CopyFrom(m.Frame(2))
	if m.data != nil {
		t.Fatal("metadata-only memory allocated a contents table")
	}
}

// TestFrameLayout pins a frame at 16 bytes: a name for a slot of memory,
// with its contents kept in Memory.data.
func TestFrameLayout(t *testing.T) {
	if size := unsafe.Sizeof(Frame{}); size != 16 {
		t.Fatalf("Frame is %d bytes, want 16", size)
	}
}

func TestNewMemoryRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{FrameSize: 3000, TotalBytes: 1 << 20},
		{FrameSize: 0, TotalBytes: 1 << 20},
		{FrameSize: 4096, TotalBytes: 1000},
		{FrameSize: 4096, TotalBytes: 0},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			NewMemory(cfg)
		}()
	}
}

func TestFrameOutOfRangePanics(t *testing.T) {
	m := testMemory()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range frame did not panic")
		}
	}()
	m.Frame(PFN(m.NumFrames()))
}

func TestRangeAdmits(t *testing.T) {
	m := testMemory()
	any := AnyFrame()
	if any.Constrained() {
		t.Fatal("AnyFrame should be unconstrained")
	}
	for pfn := 0; pfn < m.NumFrames(); pfn += 17 {
		if !any.Admits(m.Frame(PFN(pfn))) {
			t.Fatalf("AnyFrame rejected %d", pfn)
		}
	}
	r := Range{Lo: 10, Hi: 20, Color: ColorAny, Node: NodeAny}
	if r.Admits(m.Frame(9)) || !r.Admits(m.Frame(10)) || !r.Admits(m.Frame(19)) || r.Admits(m.Frame(20)) {
		t.Fatal("PFN bounds wrong")
	}
	rc := Range{Color: 3, Node: NodeAny}
	if !rc.Admits(m.Frame(3)) || rc.Admits(m.Frame(4)) || !rc.Admits(m.Frame(11)) {
		t.Fatal("color constraint wrong")
	}
	rn := Range{Color: ColorAny, Node: 2}
	if !rn.Admits(m.Frame(128)) || rn.Admits(m.Frame(0)) {
		t.Fatal("node constraint wrong")
	}
}

// Property: a frame admitted by a Range always satisfies every stated bound.
func TestRangeAdmitsProperty(t *testing.T) {
	m := testMemory()
	f := func(lo, hi uint8, color, node int8) bool {
		r := Range{Lo: PFN(lo), Hi: PFN(hi), Color: int(color % 8), Node: int(node % 4)}
		for pfn := 0; pfn < m.NumFrames(); pfn++ {
			fr := m.Frame(PFN(pfn))
			ok := fr.PFN() >= r.Lo &&
				(r.Hi == 0 || fr.PFN() < r.Hi) &&
				(r.Color < 0 || fr.Color() == r.Color) &&
				(r.Node < 0 || fr.Node() == r.Node)
			if r.Admits(fr) != ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	m := testMemory()
	c := NewCache(8, 2)
	f := m.Frame(0)
	if c.Access(f) {
		t.Fatal("first access should miss")
	}
	if !c.Access(f) {
		t.Fatal("second access should hit")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheConflictEviction(t *testing.T) {
	m := testMemory()
	c := NewCache(8, 2)
	// Frames 0, 8, 16 all have color 0; a 2-way set holds only two.
	c.Access(m.Frame(0))
	c.Access(m.Frame(8))
	c.Access(m.Frame(16)) // evicts frame 0 (LRU)
	if c.Access(m.Frame(0)) {
		t.Fatal("frame 0 should have been evicted")
	}
	// Re-loading frame 0 evicted frame 8 (the LRU of {16, 8}).
	if !c.Access(m.Frame(16)) {
		t.Fatal("frame 16 should still be resident")
	}
	if c.Access(m.Frame(8)) {
		t.Fatal("frame 8 should have been evicted by frame 0's reload")
	}
}

func TestCacheColoringReducesMisses(t *testing.T) {
	// A working set of 8 pages in an 8-color 1-way cache: with one page per
	// color it fits perfectly; with all pages the same color it thrashes.
	m := testMemory()
	colored := NewCache(8, 1)
	var coloredFrames, conflicted []*Frame
	for i := 0; i < 8; i++ {
		coloredFrames = append(coloredFrames, m.Frame(PFN(i))) // colors 0..7
		conflicted = append(conflicted, m.Frame(PFN(i*8)))     // all color 0
	}
	for round := 0; round < 100; round++ {
		for _, f := range coloredFrames {
			colored.Access(f)
		}
	}
	uncolored := NewCache(8, 1)
	for round := 0; round < 100; round++ {
		for _, f := range conflicted {
			uncolored.Access(f)
		}
	}
	if colored.MissRatio() >= 0.05 {
		t.Fatalf("colored miss ratio %v, want ~0 after warmup", colored.MissRatio())
	}
	if uncolored.MissRatio() != 1.0 {
		t.Fatalf("conflicting miss ratio %v, want 1.0 (thrashing)", uncolored.MissRatio())
	}
}

func TestCacheReset(t *testing.T) {
	m := testMemory()
	c := NewCache(4, 1)
	c.Access(m.Frame(0))
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if c.Access(m.Frame(0)) {
		t.Fatal("Reset did not clear contents")
	}
}
