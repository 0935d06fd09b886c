// Package phys models the physical memory of the simulated machine: a flat
// array of page frames with physical addresses, cache colors and NUMA node
// placement.
//
// The paper's central abstraction is the page-frame cache: the kernel exports
// page frames — including their physical addresses — to process-level
// managers, which is what enables page coloring and physical placement
// control (Sections 1 and 2.4). This package is the ground truth those
// managers reason about.
package phys

import (
	"fmt"
	"sync"
)

// PFN is a physical frame number. Frame 0 is a valid frame.
type PFN uint32

// NoFrame is the sentinel "no frame" value returned where a frame may be
// absent.
const NoFrame PFN = ^PFN(0)

// Config describes a simulated memory system.
type Config struct {
	// FrameSize is the base page-frame size in bytes (the DECstation
	// 5000/200 of the paper has 4 KB pages). Must be a power of two.
	FrameSize int
	// TotalBytes is the amount of physical memory. The paper's V++ machine
	// has 128 MB. Must be a multiple of FrameSize.
	TotalBytes int64
	// Nodes is the number of NUMA nodes the frames are distributed over
	// (1 for a uniform machine; >1 models a DASH-like distributed-memory
	// machine). Frames are striped over nodes in equal contiguous extents.
	Nodes int
	// CacheColors is the number of page colors of the physically-indexed
	// cache (cache size / (associativity × page size)). 0 means 16.
	CacheColors int
	// StoreData controls whether frames carry real byte contents. Metadata-
	// only simulations (the database experiment) turn this off to avoid
	// allocating gigabytes.
	StoreData bool
}

// Frame is one physical page frame: a name for a slot of the machine's
// memory, 16 bytes and nothing else. Its contents, when the memory stores
// any, live in Memory.data beside it.
type Frame struct {
	mem  *Memory
	pfn  PFN
	node int32
}

// PFN returns the frame's physical frame number.
func (f *Frame) PFN() PFN { return f.pfn }

// PhysAddr returns the frame's physical byte address.
func (f *Frame) PhysAddr() int64 { return int64(f.pfn) * int64(f.mem.frameSize) }

// Node returns the NUMA node holding the frame.
func (f *Frame) Node() int { return int(f.node) }

// Color returns the frame's page color in the machine's physically-indexed
// cache. Two virtual pages mapped to frames of the same color collide in
// the cache.
func (f *Frame) Color() int { return int(f.pfn) % f.mem.colors }

// Size returns the frame size in bytes.
func (f *Frame) Size() int { return f.mem.frameSize }

// StoresData reports whether the frame's memory carries real byte contents
// (Config.StoreData). When false, Data always returns nil.
func (f *Frame) StoresData() bool { return f.mem.storeData }

// bytes returns the frame's backing bytes: nil until first touched, and
// always nil if the memory stores no data.
func (f *Frame) bytes() []byte {
	if f.mem.data == nil {
		return nil
	}
	return f.mem.data[f.pfn]
}

// Data returns the frame's contents, allocating backing bytes on first use.
// It returns nil when the memory was configured without data storage.
func (f *Frame) Data() []byte {
	if !f.mem.storeData {
		return nil
	}
	d := &f.mem.data[f.pfn]
	if *d == nil {
		*d = make([]byte, f.mem.frameSize)
	}
	return *d
}

// Zero clears the frame's contents (the Ultrix security zero-fill).
func (f *Frame) Zero() {
	if d := f.bytes(); d != nil {
		clear(d)
	}
}

// CopyFrom copies the contents of src into f. Both frames must belong to
// memories with the same frame size.
func (f *Frame) CopyFrom(src *Frame) {
	if !f.mem.storeData {
		return
	}
	s := src.bytes()
	if s == nil {
		// Source untouched: it reads as zeros, so the destination must too.
		// An untouched destination already does; don't allocate for it.
		f.Zero()
		return
	}
	d := &f.mem.data[f.pfn]
	if *d == nil {
		*d = f.mem.GetBuffer() // fully overwritten by the copy below
	}
	copy(*d, s)
}

// Fill overwrites the frame's contents with whatever fn writes into the
// supplied buffer. fn must fully overwrite the buffer: its prior contents
// are undefined (it may be recycled). When the memory stores no data the
// buffer is pooled scratch, so device models can still charge for the
// transfer without a per-call allocation. If fn returns an error the frame
// is left unmodified.
func (f *Frame) Fill(fn func(buf []byte) error) error {
	if !f.mem.storeData {
		p := f.mem.getBufPtr()
		err := fn(*p)
		f.mem.putBufPtr(p)
		return err
	}
	d := &f.mem.data[f.pfn]
	if *d != nil {
		return fn(*d)
	}
	p := f.mem.getBufPtr()
	if err := fn(*p); err != nil {
		f.mem.putBufPtr(p)
		return err
	}
	*d = *p
	return nil
}

// WithData calls fn with the frame's current contents. A frame with no
// backing bytes (untouched, or data storage off) reads as zeros, so fn
// receives the memory's shared zero page in that case — without the
// permanent allocation Data would make. fn must not write the buffer or
// retain it.
func (f *Frame) WithData(fn func(buf []byte) error) error {
	if d := f.bytes(); d != nil {
		return fn(d)
	}
	return fn(f.mem.zero)
}

// Memory is the machine's physical memory: a fixed population of frames.
type Memory struct {
	frameSize int
	frames    []Frame
	// data holds each frame's contents by PFN (nil until first touched); the
	// slice itself is nil when the memory stores no data.
	data      [][]byte
	nodes     int
	colors    int
	storeData bool
	// zero is the read-only page WithData hands out for a frame with no
	// bytes.
	zero []byte
	// bufPool recycles frame-size buffers for Fill/Adopt handoffs and
	// callers' I/O scratch space, so the migrate/pagein paths do not pay a
	// 4 KB allocation (and its zeroing) per transfer.
	bufPool sync.Pool
}

// NewMemory builds a memory system from cfg. It panics on invalid
// configurations, since a bad machine description is a programming error.
func NewMemory(cfg Config) *Memory {
	if cfg.FrameSize <= 0 || cfg.FrameSize&(cfg.FrameSize-1) != 0 {
		panic(fmt.Sprintf("phys: frame size %d is not a positive power of two", cfg.FrameSize))
	}
	if cfg.TotalBytes <= 0 || cfg.TotalBytes%int64(cfg.FrameSize) != 0 {
		panic(fmt.Sprintf("phys: total %d is not a positive multiple of frame size %d",
			cfg.TotalBytes, cfg.FrameSize))
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.CacheColors <= 0 {
		cfg.CacheColors = 16
	}
	n := int(cfg.TotalBytes / int64(cfg.FrameSize))
	m := &Memory{
		frameSize: cfg.FrameSize,
		frames:    make([]Frame, n),
		nodes:     cfg.Nodes,
		colors:    cfg.CacheColors,
		storeData: cfg.StoreData,
		zero:      make([]byte, cfg.FrameSize),
	}
	if cfg.StoreData {
		m.data = make([][]byte, n)
	}
	// Node i holds the i-th block of perNode frames (the last may be short):
	// one straight pass per block, no division per frame.
	perNode := (n + cfg.Nodes - 1) / cfg.Nodes
	for lo, node := 0, int32(0); lo < n; lo, node = lo+perNode, node+1 {
		block := m.frames[lo:min(lo+perNode, n)]
		for i := range block {
			block[i] = Frame{mem: m, pfn: PFN(lo + i), node: node}
		}
	}
	return m
}

// FrameSize returns the base frame size in bytes.
func (m *Memory) FrameSize() int { return m.frameSize }

// NumFrames returns the total number of frames.
func (m *Memory) NumFrames() int { return len(m.frames) }

// TotalBytes returns the total physical memory size.
func (m *Memory) TotalBytes() int64 { return int64(len(m.frames)) * int64(m.frameSize) }

// Nodes returns the number of NUMA nodes.
func (m *Memory) Nodes() int { return m.nodes }

// Colors returns the number of cache page colors.
func (m *Memory) Colors() int { return m.colors }

// GetBuffer returns a frame-size byte buffer with undefined contents, from
// the memory's recycling pool when one is available. Pair with PutBuffer.
func (m *Memory) GetBuffer() []byte {
	return *m.getBufPtr()
}

// getBufPtr / putBufPtr are the pointer-preserving forms used on round-trip
// paths (scratch fills): keeping the *[]byte box alive across the
// Get/Put cycle means the pool never re-boxes the slice header, so those
// paths allocate nothing in steady state.
func (m *Memory) getBufPtr() *[]byte {
	if p, _ := m.bufPool.Get().(*[]byte); p != nil {
		return p
	}
	b := make([]byte, m.frameSize)
	return &b
}

func (m *Memory) putBufPtr(p *[]byte) { m.bufPool.Put(p) }

// PutBuffer returns a buffer obtained from GetBuffer (or surrendered by a
// frame) to the pool. Buffers of the wrong size are dropped.
func (m *Memory) PutBuffer(buf []byte) {
	if len(buf) != m.frameSize {
		return
	}
	m.bufPool.Put(&buf)
}

// Frame returns the frame with the given number. It panics if pfn is out of
// range (the index check does it, which keeps the call inlinable: the
// kernel names a page's frames through it).
func (m *Memory) Frame(pfn PFN) *Frame { return &m.frames[pfn] }

// Range describes a constraint on which physical frames are acceptable for
// an allocation — the mechanism behind the SPCM's support for "particular
// page frames by physical address or by physical address range" (§2.4).
// The zero value accepts any frame.
type Range struct {
	// Lo and Hi bound the acceptable PFNs: Lo <= pfn < Hi. Hi == 0 means
	// unbounded above.
	Lo, Hi PFN
	// Color restricts to frames of one cache color; -1 (or ColorAny)
	// accepts all colors.
	Color int
	// Node restricts to one NUMA node; -1 (or NodeAny) accepts all nodes.
	Node int
}

// ColorAny and NodeAny make Range literals readable.
const (
	ColorAny = -1
	NodeAny  = -1
)

// AnyFrame is the unconstrained range.
func AnyFrame() Range { return Range{Color: ColorAny, Node: NodeAny} }

// Admits reports whether frame f satisfies the constraint.
func (r Range) Admits(f *Frame) bool {
	if f.pfn < r.Lo {
		return false
	}
	if r.Hi != 0 && f.pfn >= r.Hi {
		return false
	}
	if r.Color >= 0 && f.Color() != r.Color {
		return false
	}
	if r.Node >= 0 && f.Node() != r.Node {
		return false
	}
	return true
}

// Constrained reports whether the range excludes any frame at all; the SPCM
// uses this to fall back to its fast free list for unconstrained requests.
func (r Range) Constrained() bool {
	return r.Lo != 0 || r.Hi != 0 || r.Color >= 0 || r.Node >= 0
}

func (r Range) String() string {
	if !r.Constrained() {
		return "any"
	}
	return fmt.Sprintf("pfn[%d,%d) color=%d node=%d", r.Lo, r.Hi, r.Color, r.Node)
}
