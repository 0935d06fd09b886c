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
// the large one left clean. Each batch is a 2-byte header — the range count
// (16 bits) — and 5 bytes a range: source page and destination page (16
// bits each), then one byte whose low six bits are the length 1..64 and
// whose top two bits lift the source and the destination page past 2^39,
// which spreads that side too thin for a bitset and sends the batch to the
// sorting arm.
func FuzzBatchDisjoint(f *testing.F) {
	// A whole-pool return, then a scattered grant: the order `concurrent`
	// meets them in.
	f.Add(append(encodeBatch(scatteredSingles(16384, 16384)),
		encodeBatch(scatteredSingles(190, 8192))...))
	dup := scatteredSingles(40, 4096)
	dup[39].To = dup[7].To
	f.Add(encodeBatch(dup))
	dup = scatteredSingles(40, 4096)
	dup[21].Page, dup[21].Pages = dup[3].Page-1, 48
	f.Add(encodeBatch(dup))
	sparse := scatteredSingles(40, 4096)
	sparse[5].Page += 1 << 39
	f.Add(encodeBatch(sparse))
	sparse[30].Page = sparse[5].Page
	f.Add(encodeBatch(sparse))
	// A small unsorted batch whose third range overlaps both earlier ones.
	f.Add(encodeBatch([]PageRange{{Page: 40, To: 0, Pages: 16}, {Page: 10, To: 20, Pages: 16}, {Page: 20, To: 40, Pages: 24}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		src, dst := &Segment{name: "src", id: 1}, &Segment{name: "dst", id: 2}
		for len(data) >= 2 {
			var ranges []PageRange
			ranges, data = decodeBatch(data)
			got := checkDisjoint(src, dst, ranges)
			want := refCheckDisjoint(src, dst, ranges)
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("%d ranges: checkDisjoint = %v, reference %v", len(ranges), got, want)
			}
			if got != nil && !errors.Is(got, ErrBadRange) {
				t.Fatalf("collision reported as %v, want ErrBadRange", got)
			}
		}
	})
}

// batchLift is the meta byte's lift bit for the source page; the
// destination's is the next bit up.
const batchLift = 1 << 6

func encodeBatch(ranges []PageRange) []byte {
	out := []byte{byte(len(ranges)), byte(len(ranges) >> 8)}
	for _, r := range ranges {
		meta := byte(r.Pages - 1)
		if r.Page >= 1<<39 {
			meta |= batchLift
		}
		if r.To >= 1<<39 {
			meta |= batchLift << 1
		}
		out = append(out, byte(r.Page), byte(r.Page>>8), byte(r.To), byte(r.To>>8), meta)
	}
	return out
}

func decodeBatch(data []byte) (ranges []PageRange, rest []byte) {
	n := int(data[0]) | int(data[1])<<8
	data = data[2:]
	for ; n > 0 && len(data) >= 5; n-- {
		r := PageRange{
			Page:  int64(data[0]) | int64(data[1])<<8,
			To:    int64(data[2]) | int64(data[3])<<8,
			Pages: int64(data[4]&(batchLift-1)) + 1,
		}
		if data[4]&batchLift != 0 {
			r.Page += 1 << 39
		}
		if data[4]&(batchLift<<1) != 0 {
			r.To += 1 << 39
		}
		ranges = append(ranges, r)
		data = data[5:]
	}
	return ranges, data
}
