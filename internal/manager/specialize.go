package manager

import (
	"epcm/internal/kernel"
	"epcm/internal/phys"
)

// This file holds the thin specializations the paper sketches in §2.2 and
// §2.4: managers that constrain *which physical frames* serve their
// segments — page coloring for physically-indexed caches and physical
// placement for distributed-memory (DASH-like) machines. Both are a
// Constraint hook over the Generic manager; the point of the design is that
// such policies need no kernel changes at all.

// NewColoring returns a manager that serves page p of any managed segment
// with a frame of color p mod colors, so consecutive virtual pages never
// collide in a physically-indexed cache. colors should match the machine's
// phys.Memory.Colors().
func NewColoring(k *kernel.Kernel, cfg Config, colors int) (*Generic, error) {
	if cfg.Name == "" {
		cfg.Name = "coloring-manager"
	}
	cfg.Constraint = func(f kernel.Fault) phys.Range {
		return phys.Range{Color: int(f.Page % int64(colors)), Node: phys.NodeAny}
	}
	return NewGeneric(k, cfg)
}

// NewPlacement returns a manager that serves each fault with a frame on the
// NUMA node chosen by nodeOf — the §2.2 "different free page segments to
// handle distributed physical memory on machines such as DASH" policy,
// expressed as an allocation constraint.
func NewPlacement(k *kernel.Kernel, cfg Config, nodeOf func(f kernel.Fault) int) (*Generic, error) {
	if cfg.Name == "" {
		cfg.Name = "placement-manager"
	}
	cfg.Constraint = func(f kernel.Fault) phys.Range {
		return phys.Range{Color: phys.ColorAny, Node: nodeOf(f)}
	}
	return NewGeneric(k, cfg)
}

// FixedPool is a FrameSource over a dedicated donor segment, for tests and
// self-contained experiments that run without a full SPCM. It grants frames
// from the donor until exhausted and accepts returns back into it.
//
// Donor page numbers are mapping-table keys, so how the donor is numbered is
// model state: page i holds frame startPFN+i from stocking until it is
// granted, a grant takes the lowest pages that hold an admissible frame, and
// a returned frame lands at next — above every page ever used — never in a
// slot a grant vacated.
type FixedPool struct {
	K     *kernel.Kernel
	Cred  kernel.Cred
	Donor *kernel.Segment
	next  int64 // receiving slot high-water mark in Donor
	// stocked is next as stocking left it, for Rewind.
	stocked int64
}

var _ FrameSource = (*FixedPool)(nil)

// NewFixedPool wraps a donor segment holding nFrames frames taken from the
// kernel's boot segment starting at startPFN: one migration of the range
// [startPFN, startPFN+nFrames) to donor pages [0, nFrames), which the kernel
// can move as a run only because the numbering is this plain.
func NewFixedPool(k *kernel.Kernel, nFrames, startPFN int64) (*FixedPool, error) {
	donor, err := k.CreateSegment("fixed-pool", 1)
	if err != nil {
		return nil, err
	}
	if err := k.MigratePages(kernel.SystemCred, k.BootSegment(), donor, startPFN, 0, nFrames, 0, 0); err != nil {
		// A refused migration moved nothing: unregister the empty donor
		// (ours alone and undeleted, so the delete cannot be refused).
		_ = k.DeleteSegment(kernel.SystemCred, donor)
		return nil, err
	}
	return &FixedPool{K: k, Cred: kernel.AppCred, Donor: donor, next: nFrames, stocked: nFrames}, nil
}

// Rewind puts the receiving high-water mark back where stocking left it:
// the pool's half of restoring its kernel to an image taken right after
// stocking (kernel.Restore), which puts the donor's pages back.
func (p *FixedPool) Rewind() { p.next = p.stocked }

// RequestFrames implements FrameSource: the n lowest donor pages holding a
// frame the constraint admits, one single-page migration each, in page order.
func (p *FixedPool) RequestFrames(g *Generic, n int, constraint phys.Range) (int, error) {
	give := make([]int64, 0, n)
	p.Donor.ForEachPage(func(page int64) bool {
		if constraint.Admits(p.Donor.FrameAt(page)) {
			give = append(give, page)
		}
		return len(give) < n
	})
	if len(give) == 0 {
		return 0, nil
	}
	slots := g.ReserveSlots(nil, len(give))
	for i, page := range give {
		if err := p.K.MigratePages(p.Cred, p.Donor, g.FreeSegment(), page, slots[i], 1, 0, 0); err != nil {
			// The first i frames arrived and are granted; the rest did not.
			g.Granted(slots[:i], nil)
			g.Granted(slots[i:], err)
			return i, err
		}
	}
	g.Granted(slots, nil)
	return len(give), nil
}

// ReturnFrames implements FrameSource.
func (p *FixedPool) ReturnFrames(g *Generic, slots []int64) error {
	for _, s := range slots {
		if err := p.K.MigratePages(p.Cred, g.FreeSegment(), p.Donor, s, p.next, 1, 0, 0); err != nil {
			return err
		}
		p.next++
	}
	return nil
}
