package kernel

import (
	"errors"
	"testing"
)

// FuzzBatchDisjoint drives checkDisjoint and the page-by-page reference
// (reference_test.go) over a fuzz-chosen sequence of batches and requires
// the same verdict and, on a collision, the same segment and page. An input
// is several batches back to back, because the pooled scratch carries from
// one check to the next: a small batch after a large one must read bitsets
// the large one left clean. Each batch is a 3-byte header — range count
// (16 bits), then srcMul and dstMul, each one of {1,4,16} — and 5 bytes a
// range: source page and destination page (16 bits each), then length 1..4
// and one bit a side that lifts the page past 2^39, which spreads the side
// too thin for a bitset and sends the batch to the sorting arm.
func FuzzBatchDisjoint(f *testing.F) {
	// A whole-pool return, then a scattered grant: the order `concurrent`
	// meets them in.
	f.Add(append(encodeBatch(scatteredSingles(16384, 16384), 0, 0),
		encodeBatch(scatteredSingles(190, 8192), 0, 0)...))
	dup := scatteredSingles(40, 4096)
	dup[39].To = dup[7].To
	f.Add(encodeBatch(dup, 0, 0))
	dup = scatteredSingles(40, 4096)
	dup[21].Page, dup[21].Pages = dup[3].Page-1, 3
	f.Add(encodeBatch(dup, 1, 2))
	sparse := scatteredSingles(40, 4096)
	sparse[5].Page += 1 << 39
	f.Add(encodeBatch(sparse, 2, 1))
	sparse[30].Page = sparse[5].Page
	f.Add(encodeBatch(sparse, 0, 0))
	// A small unsorted batch whose third range overlaps both earlier ones.
	f.Add(encodeBatch([]PageRange{{Page: 40, To: 0, Pages: 4}, {Page: 10, To: 20, Pages: 4}, {Page: 12, To: 40, Pages: 4}}, 2, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		src, dst := &Segment{name: "src", id: 1}, &Segment{name: "dst", id: 2}
		for len(data) >= 3 {
			var ranges []PageRange
			var srcMul, dstMul int64
			ranges, srcMul, dstMul, data = decodeBatch(data)
			got := checkDisjoint(src, dst, ranges, srcMul, dstMul)
			want := refCheckDisjoint(src, dst, ranges, srcMul, dstMul)
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("%d ranges x%d/x%d: checkDisjoint = %v, reference %v", len(ranges), srcMul, dstMul, got, want)
			}
			if got != nil && !errors.Is(got, ErrBadRange) {
				t.Fatalf("collision reported as %v, want ErrBadRange", got)
			}
		}
	})
}

var batchMuls = [4]int64{1, 4, 16, 1}

func encodeBatch(ranges []PageRange, srcSel, dstSel byte) []byte {
	out := []byte{byte(len(ranges)), byte(len(ranges) >> 8), srcSel | dstSel<<2}
	for _, r := range ranges {
		meta := byte(r.Pages - 1)
		if r.Page >= 1<<39 {
			meta |= 4
		}
		if r.To >= 1<<39 {
			meta |= 8
		}
		out = append(out, byte(r.Page), byte(r.Page>>8), byte(r.To), byte(r.To>>8), meta)
	}
	return out
}

func decodeBatch(data []byte) (ranges []PageRange, srcMul, dstMul int64, rest []byte) {
	n := int(data[0]) | int(data[1])<<8
	srcMul, dstMul = batchMuls[data[2]&3], batchMuls[data[2]>>2&3]
	data = data[3:]
	for ; n > 0 && len(data) >= 5; n-- {
		r := PageRange{
			Page:  int64(data[0]) | int64(data[1])<<8,
			To:    int64(data[2]) | int64(data[3])<<8,
			Pages: int64(data[4]&3) + 1,
		}
		if data[4]&4 != 0 {
			r.Page += 1 << 39
		}
		if data[4]&8 != 0 {
			r.To += 1 << 39
		}
		ranges = append(ranges, r)
		data = data[5:]
	}
	return ranges, srcMul, dstMul, data
}
