package uio

import "fmt"

// The byte-offset view of a File: io.ReaderAt / io.WriterAt and whole-file
// reads and writes, layered on ReadBlock and WriteBlock. No program reads a
// cached file by byte offset, so the view lives with the tests, which drive
// the block interface through it across block boundaries and with
// partial-block buffers.

// BlockSize returns the file's block size (the segment's page size).
func (f *File) BlockSize() int { return f.seg.PageSize() }

// ReadAll reads the whole file through the block interface, returning its
// contents.
func (f *File) ReadAll() ([]byte, error) {
	bs := f.seg.PageSize()
	out := make([]byte, f.sizeBlocks*int64(bs))
	for b := int64(0); b < f.sizeBlocks; b++ {
		if err := f.ReadBlock(b, out[b*int64(bs):(b+1)*int64(bs)]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteAll writes data sequentially from block 0, extending the file.
func (f *File) WriteAll(data []byte) error {
	bs := f.seg.PageSize()
	for off, b := 0, int64(0); off < len(data); off, b = off+bs, b+1 {
		end := min(off+bs, len(data))
		if err := f.WriteBlock(b, data[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// ReadAt implements io.ReaderAt: byte-granular reads spanning blocks. Each
// touched block costs one block operation — exactly what a real program
// pays for unaligned I/O through a block interface.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("uio: ReadAt %q: negative offset", f.name)
	}
	bs := int64(f.seg.PageSize())
	buf := make([]byte, bs)
	n := 0
	for n < len(p) {
		block := (off + int64(n)) / bs
		inner := (off + int64(n)) % bs
		if err := f.ReadBlock(block, buf); err != nil {
			return n, err
		}
		n += copy(p[n:], buf[inner:])
	}
	return n, nil
}

// WriteAt implements io.WriterAt. Partial-block writes read-modify-write
// the containing block, as a block device requires.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("uio: WriteAt %q: negative offset", f.name)
	}
	bs := int64(f.seg.PageSize())
	buf := make([]byte, bs)
	n := 0
	for n < len(p) {
		block := (off + int64(n)) / bs
		inner := (off + int64(n)) % bs
		span := min(int(bs-inner), len(p)-n)
		if inner != 0 || span < int(bs) {
			// Read-modify-write for partial blocks.
			if err := f.ReadBlock(block, buf); err != nil {
				return n, err
			}
		}
		copy(buf[inner:], p[n:n+span])
		if err := f.WriteBlock(block, buf); err != nil {
			return n, err
		}
		n += span
	}
	return n, nil
}
