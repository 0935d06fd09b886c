// Package uio implements the paper's Uniform Input/Output block interface
// over cached-file segments (§2.1): a kernel-provided, file-like block
// read/write interface. When the touched page is cached, an access is a
// single kernel operation (Table 1: 222 µs read, 203 µs write for 4 KB);
// when it is not, the access first takes the ordinary page-fault path to
// the segment's manager, which supplies the page, and then completes.
//
// The block interface does not map the file into the caller's address
// space; data is copied between the caller's buffer and the cached page.
package uio

import (
	"fmt"

	"epcm/internal/kernel"
)

// File is an open cached file: a segment plus the bookkeeping a file
// descriptor carries.
type File struct {
	k    *kernel.Kernel
	seg  *kernel.Segment
	name string
	// sizeBlocks tracks the file's logical length in blocks; writes past
	// the end extend it.
	sizeBlocks int64
	reads      int64
	writes     int64
}

// Open wraps a cached-file segment in the block interface. sizeBlocks is
// the file's current length (0 for a new file).
func Open(k *kernel.Kernel, seg *kernel.Segment, name string, sizeBlocks int64) *File {
	return &File{k: k, seg: seg, name: name, sizeBlocks: sizeBlocks}
}

// Segment returns the underlying cached-file segment.
func (f *File) Segment() *kernel.Segment { return f.seg }

// Name returns the file name.
func (f *File) Name() string { return f.name }

// SizeBlocks returns the file length in blocks.
func (f *File) SizeBlocks() int64 { return f.sizeBlocks }

// Reads and Writes report the number of block operations performed.
func (f *File) Reads() int64  { return f.reads }
func (f *File) Writes() int64 { return f.writes }

// ResetCounters zeroes the operation counters.
func (f *File) ResetCounters() { f.reads, f.writes = 0, 0 }

// ReadBlock reads block `block` into buf (len(buf) <= block size). A read
// of a page with no frame faults to the segment manager first.
func (f *File) ReadBlock(block int64, buf []byte) error {
	if block < 0 {
		return fmt.Errorf("uio: read %q block %d: negative block", f.name, block)
	}
	if len(buf) > f.seg.PageSize() {
		return fmt.Errorf("uio: read %q block %d: buffer %d exceeds block size %d",
			f.name, block, len(buf), f.seg.PageSize())
	}
	f.reads++
	if !f.seg.HasPage(block) {
		if err := f.k.FaultIn(f.seg, block, kernel.Read); err != nil {
			return fmt.Errorf("uio: read %q block %d: %w", f.name, block, err)
		}
	}
	// Cached access: a single kernel operation (§2.1), charged as the
	// Table 1 composition.
	f.k.Clock().Advance(f.k.Cost().VppRead4K())
	if frame := f.seg.FrameAt(block); frame != nil && frame.StoresData() {
		// An untouched frame reads as zeros through pooled scratch rather
		// than forcing a permanent backing allocation.
		_ = frame.WithData(func(data []byte) error { copy(buf, data); return nil })
	}
	f.k.MarkAccessed(f.seg, block, false)
	return nil
}

// WriteBlock writes buf to block `block`. Writing a page with no frame
// faults to the segment manager (the paper's "write appending a new page to
// a segment" minimal-fault case), then completes as a cached write.
func (f *File) WriteBlock(block int64, buf []byte) error {
	if block < 0 {
		return fmt.Errorf("uio: write %q block %d: negative block", f.name, block)
	}
	if len(buf) > f.seg.PageSize() {
		return fmt.Errorf("uio: write %q block %d: buffer %d exceeds block size %d",
			f.name, block, len(buf), f.seg.PageSize())
	}
	f.writes++
	if !f.seg.HasPage(block) {
		if err := f.k.FaultIn(f.seg, block, kernel.Write); err != nil {
			return fmt.Errorf("uio: write %q block %d: %w", f.name, block, err)
		}
	}
	f.k.Clock().Advance(f.k.Cost().VppWrite4K())
	if frame := f.seg.FrameAt(block); frame != nil && frame.StoresData() {
		if len(buf) == f.seg.PageSize() {
			// Full-block write: the copy overwrites everything, so skip the
			// zeroing a fresh Data allocation would do.
			_ = frame.Fill(func(data []byte) error { copy(data, buf); return nil })
		} else {
			copy(frame.Data(), buf)
		}
	}
	f.k.MarkAccessed(f.seg, block, true)
	if block+1 > f.sizeBlocks {
		f.sizeBlocks = block + 1
	}
	return nil
}
