package manager

import (
	"encoding/binary"

	"epcm/internal/kernel"
	"epcm/internal/phys"
	"epcm/internal/storage"
)

// This file implements one of the "variety of sophisticated schemes" §2.1
// says a process-level manager can readily build once fault events and
// frame control are exported: compressed swap. It is an ordinary Backing —
// no kernel change of any kind is involved, which is the paper's point.

// --- Compressed swap -------------------------------------------------------

// CompressedBacking stores pages run-length encoded. Sparse pages (heaps,
// zero-dominated matrices) compress to a fraction of a block, cutting both
// transfer time and backing-store space. The compressed image is kept in
// memory by the manager (compression is a memory-for-I/O trade); fully
// incompressible pages fall back to the plain store.
type CompressedBacking struct {
	store storage.BlockStore
	// images holds compressed page data by (segment, page).
	images map[resKey][]byte
	// stats
	pagesStored   int64
	bytesRaw      int64
	bytesCompress int64
	fallbacks     int64
}

// NewCompressedBacking builds a compressed swap over a fallback store.
func NewCompressedBacking(store storage.BlockStore) *CompressedBacking {
	return &CompressedBacking{store: store, images: make(map[resKey][]byte)}
}

// CompressionRatio reports raw/compressed bytes over all writebacks (>=1
// means compression is winning).
func (b *CompressedBacking) CompressionRatio() float64 {
	if b.bytesCompress == 0 {
		return 0
	}
	return float64(b.bytesRaw) / float64(b.bytesCompress)
}

// PagesStored reports how many pages are held compressed.
func (b *CompressedBacking) PagesStored() int64 { return b.pagesStored }

// Fallbacks reports pages that did not compress and went to the store.
func (b *CompressedBacking) Fallbacks() int64 { return b.fallbacks }

// rleCompress run-length encodes buf as (count uint16, byte) pairs.
// Returns nil if the encoding would not save at least half the page.
func rleCompress(buf []byte) []byte {
	out := make([]byte, 0, len(buf)/4)
	for i := 0; i < len(buf); {
		j := i + 1
		for j < len(buf) && buf[j] == buf[i] && j-i < 0xFFFF {
			j++
		}
		var pair [3]byte
		binary.LittleEndian.PutUint16(pair[:2], uint16(j-i))
		pair[2] = buf[i]
		out = append(out, pair[:]...)
		if len(out) > len(buf)/2 {
			return nil // not worth it
		}
		i = j
	}
	return out
}

// rleDecompress expands an rleCompress image into buf.
func rleDecompress(img, buf []byte) {
	pos := 0
	for i := 0; i+3 <= len(img); i += 3 {
		n := int(binary.LittleEndian.Uint16(img[i : i+2]))
		v := img[i+2]
		for k := 0; k < n && pos < len(buf); k++ {
			buf[pos] = v
			pos++
		}
	}
	for ; pos < len(buf); pos++ {
		buf[pos] = 0
	}
}

// Writeback implements Backing: compress, or fall back to the store.
func (b *CompressedBacking) Writeback(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	return frame.WithData(func(data []byte) error {
		key := resKey{seg: seg, page: page}
		if img := rleCompress(data); img != nil {
			b.images[key] = img
			b.pagesStored++
			b.bytesRaw += int64(len(data))
			b.bytesCompress += int64(len(img))
			return nil
		}
		delete(b.images, key)
		b.fallbacks++
		return b.store.Store(swapName(seg), page, data)
	})
}

// Fill implements Backing: decompress if held, else read the store.
func (b *CompressedBacking) Fill(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	return frame.Fill(func(buf []byte) error {
		if img, ok := b.images[resKey{seg: seg, page: page}]; ok {
			rleDecompress(img, buf) // writes every byte, zero-padding the tail
			return nil
		}
		return b.store.Fetch(swapName(seg), page, buf)
	})
}
