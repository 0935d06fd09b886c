package kernel

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

// bulkWorld runs migrations on a kernel beside the page-at-a-time definition
// of the operation: the reference mapping table and TLB replayed one key at
// a time — demote any extent covering the source page, remove and invalidate
// the source, insert and install the destination, or for a range applied
// whole one span entry after its last page — and a map per segment, page ->
// frame and flags, moved one page at a time. The range body's shortcuts (the
// never-named source skip, reserve, installRun, entries changing
// stores as a run, an exact source extent dropped up front) must be
// invisible to all three.
type bulkWorld struct {
	t     *testing.T
	k     *Kernel
	refT  *refMappingTable
	refL  *refTLB
	model map[*Segment]map[int64]bulkPage
	spans map[*Segment]map[int64]uint8 // live extents, base -> order
}

type bulkPage struct {
	pfn   phys.PFN
	flags PageFlags
}

func newBulkWorld(t *testing.T, frames int64, cfg Config) *bulkWorld {
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: frames * 4096})
	k := New(mem, new(sim.Clock), sim.DECstation5000(), cfg)
	w := &bulkWorld{t: t, k: k, model: make(map[*Segment]map[int64]bulkPage), spans: make(map[*Segment]map[int64]uint8),
		refT: newRefMappingTable(hashTableSlots, hashOverflow), refL: newRefTLB(len(k.tlb.entries))}
	w.model[k.boot] = make(map[int64]bulkPage, frames)
	for pfn := int64(0); pfn < frames; pfn++ {
		w.model[k.boot][pfn] = bulkPage{pfn: phys.PFN(pfn)}
	}
	return w
}

func (w *bulkWorld) segment(name string) *Segment {
	s, err := w.k.CreateSegment(name, 1)
	if err != nil {
		w.t.Fatal(err)
	}
	w.model[s] = make(map[int64]bulkPage)
	return s
}

// move applies ranges as one call — MigratePages for a single range, so that
// it is never an extent — and replays them on the references.
func (w *bulkWorld) move(step string, cred Cred, src, dst *Segment, set, clear PageFlags, ranges ...PageRange) {
	w.t.Helper()
	w.apply(step, cred, src, dst, set, clear, len(ranges) > 1, ranges)
}

// moveBatch is move through MigratePagesBatch whatever the number of ranges:
// with superpages on, a qualifying range is applied whole.
func (w *bulkWorld) moveBatch(step string, cred Cred, src, dst *Segment, set, clear PageFlags, ranges ...PageRange) {
	w.t.Helper()
	w.apply(step, cred, src, dst, set, clear, true, ranges)
}

func (w *bulkWorld) apply(step string, cred Cred, src, dst *Segment, set, clear PageFlags, batch bool, ranges []PageRange) {
	w.t.Helper()
	// Which ranges go whole is decided from the model's frames, before the
	// call: a whole aligned power-of-two range whose frames ascend from a
	// naturally aligned PFN.
	orders := make([]uint8, len(ranges))
	for i, r := range ranges {
		if batch && w.k.Superpages() {
			orders[i] = w.extentOrder(step, src, r)
		}
	}
	promotions := w.k.Stats().ExtentPromotions
	var err error
	if batch {
		err = w.k.MigratePagesBatch(cred, src, dst, ranges, set, clear)
	} else {
		r := ranges[0]
		err = w.k.MigratePages(cred, src, dst, r.Page, r.To, r.Pages, set, clear)
	}
	if err != nil {
		w.t.Fatalf("%s: %v", step, err)
	}
	whole := int64(0)
	for ri, r := range ranges {
		order := orders[ri]
		for i := int64(0); i < r.Pages; i++ {
			w.demoteCovering(src, r.Page+i)
			srcKey, dstKey := mapKey{src.id, r.Page + i}, mapKey{dst.id, r.To + i}
			w.refT.remove(srcKey)
			w.refL.invalidate(srcKey)
			if order == 0 {
				w.refT.insert(dstKey, nil)
				w.refL.install(dstKey)
			}
			p, ok := w.model[src][r.Page+i]
			if !ok {
				w.t.Fatalf("%s: the script moves %s page %d, which the model does not hold", step, src.name, r.Page+i)
			}
			delete(w.model[src], r.Page+i)
			p.flags = p.flags.Apply(set, clear)
			w.model[dst][r.To+i] = p
		}
		if order != 0 {
			w.recordSpan(dst, r.To, order)
			whole++
		}
	}
	if got := w.k.Stats().ExtentPromotions - promotions; got != whole {
		w.t.Fatalf("%s: %d ranges applied whole, the model says %d", step, got, whole)
	}
	w.check(step)
}

// extentOrder is the order range r of src qualifies to move whole at, or 0.
func (w *bulkWorld) extentOrder(step string, src *Segment, r PageRange) uint8 {
	if r.Pages < 2 || r.Pages > 1<<MaxExtentOrder || r.Pages&(r.Pages-1) != 0 || r.To%r.Pages != 0 {
		return 0
	}
	first, ok := w.model[src][r.Page]
	if !ok {
		w.t.Fatalf("%s: the script moves %s page %d, which the model does not hold", step, src.name, r.Page)
	}
	if int64(first.pfn)%r.Pages != 0 {
		return 0
	}
	for i := int64(1); i < r.Pages; i++ {
		if w.model[src][r.Page+i].pfn != first.pfn+phys.PFN(i) {
			return 0
		}
	}
	return uint8(bits.TrailingZeros64(uint64(r.Pages)))
}

// promote promotes an extent of s and records its span on the references.
func (w *bulkWorld) promote(s *Segment, base int64, order uint8) {
	w.t.Helper()
	if err := w.k.PromoteExtent(AppCred, s, base, int(order)); err != nil {
		w.t.Fatal(err)
	}
	w.recordSpan(s, base, order)
	w.check("promoted")
}

func (w *bulkWorld) recordSpan(s *Segment, base int64, order uint8) {
	key := mapKey{s.id, base}
	w.refT.insertSpan(key, nil, order)
	w.refL.installSpan(key, order)
	if w.spans[s] == nil {
		w.spans[s] = make(map[int64]uint8)
	}
	w.spans[s][base] = order
}

// demoteCovering withdraws the span of the extent of s covering page, if
// any: the kernel demotes it before the page leaves.
func (w *bulkWorld) demoteCovering(s *Segment, page int64) {
	for base, order := range w.spans[s] {
		if page >= base && page-base < 1<<order {
			key := mapKey{s.id, base}
			w.refT.removeSpan(key, order)
			w.refL.invalidateSpan(key, order)
			delete(w.spans[s], base)
			return
		}
	}
}

func (w *bulkWorld) check(step string) {
	w.t.Helper()
	table, tl := w.k.table, w.k.tlb
	assertSameAsReference(w.t, table, w.refT)
	assertNoDuplicates(w.t, table)
	assertTLBSameAsReference(w.t, tl, w.refL)
	for s, pages := range w.model {
		if s.pages.len() != len(pages) {
			w.t.Fatalf("%s: %s holds %d pages, the model %d", step, s.name, s.pages.len(), len(pages))
		}
		held := s.pages.pages()
		if len(held) != len(pages) || !slices.IsSorted(held) {
			w.t.Fatalf("%s: %s lists %d pages (sorted %v), the model %d", step, s.name, len(held), slices.IsSorted(held), len(pages))
		}
		for _, page := range held {
			p, ok := pages[page]
			if !ok {
				w.t.Fatalf("%s: %s lists page %d, the model does not", step, s.name, page)
			}
			if !s.pages.has(page) {
				w.t.Fatalf("%s: %s lists page %d but has(%d) is false", step, s.name, page, page)
			}
			if w.k.frameOwner[p.pfn] != s.id || w.k.framePage[p.pfn] != page {
				w.t.Fatalf("%s: frame %d recorded at segment %d page %d, the model has it at %s page %d",
					step, p.pfn, w.k.frameOwner[p.pfn], w.k.framePage[p.pfn], s.name, page)
			}
			e, ok := s.pages.get(page)
			if !ok || e.pfn != p.pfn || e.flags != p.flags {
				w.t.Fatalf("%s: %s page %d = %+v (present %v), the model has frame %d flags %v", step, s.name, page, e, ok, p.pfn, p.flags)
			}
		}
	}
	for s := range w.model {
		spans := w.spans[s]
		if len(s.extents) != len(spans) {
			w.t.Fatalf("%s: %s holds %d extents, the model %d", step, s.name, len(s.extents), len(spans))
		}
		for base, order := range spans {
			if got, ok := s.extents[base]; !ok || got != order {
				w.t.Fatalf("%s: %s extent at %d = order %d (live %v), the model %d", step, s.name, base, got, ok, order)
			}
		}
	}
	if err := w.k.CheckFrameConservation(); err != nil {
		w.t.Fatalf("%s: %v", step, err)
	}
}

// TestBulkMigrateCacheState holds the range body of migrate to the
// page-at-a-time definition of the operation (bulkWorld). Two 40 000-page
// ranges move out of a source no entry has named (boot on a fresh machine);
// consecutive pages of one segment never share a slot, but the second
// range's 40 000 keys land among the first's in a 64K-slot table, so the
// overflow area fills and drops; a third, 16 pages out of boot into a fresh
// segment, then meets that full area, so its inserts drop live keys. A
// fourth moves out of a segment whose every page is named. Then the fill
// path's shape, a 32-page run with shorter ones and one of 83 pages beside
// it; runs of 1, 63, 64, 65 and 4 096 pages — either side of the TLB's
// size — each into a fresh segment and into
// a named one; a source with a page parked in sparse and a run that parks
// in sparse and leaves it again, which move entry by entry, and a run into
// a destination with a page in sparse, which still moves slot to slot;
// frames going home to boot, and a second
// stocking out of it now that it is named. Last, with superpages on, boot
// pages into a fresh segment as an identity extent, and onward whole out of
// that exact source extent.
func TestBulkMigrateCacheState(t *testing.T) {
	const pages = 40_000
	w := newBulkWorld(t, 2*pages+1920, Config{})
	k, boot := w.k, w.k.boot
	donor, heap := w.segment("donor"), w.segment("heap")
	if boot.named {
		t.Fatal("the boot segment of a fresh machine is already named")
	}
	for i, dst := range []*Segment{donor, heap} {
		r := PageRange{Page: 16 + int64(i)*pages, To: 100 * int64(i), Pages: pages}
		w.move("out of the never-named boot segment", SystemCred, boot, dst, FlagRead, 0, r)
		if boot.named || !dst.named {
			t.Fatalf("named: boot %v, %s %v; want false, true", boot.named, dst.name, dst.named)
		}
	}
	spills, drops := k.table.stats()
	if spills < hashOverflow || drops == 0 || k.table.ovLive != hashOverflow {
		t.Fatalf("%d spills and %d drops: the ranges did not fill the overflow area", spills, drops)
	}
	w.move("never-named into never-named over a full overflow area", SystemCred, boot, w.segment("low"), FlagRW, 0, PageRange{Page: 0, To: 0, Pages: 16})
	if _, after := k.table.stats(); boot.named || after == drops {
		t.Fatalf("boot named %v, %d drops before the run and %d after: its inserts displaced nothing live", boot.named, drops, after)
	}

	file := w.segment("file")
	w.move("out of the named donor segment", AppCred, donor, file, FlagWrite, FlagRead, PageRange{Page: 0, To: 2_000, Pages: pages})

	batch := []PageRange{
		{Page: 100, To: 0, Pages: 32},
		{Page: 5_000, To: 40, Pages: 15},
		{Page: 9_000, To: 200, Pages: 16},
		{Page: 300, To: 60, Pages: 1},
		{Page: 20_000, To: 1_000, Pages: 83},
	}
	// Into a segment nothing has named, then the same shape into a named
	// one.
	for _, dst := range []*Segment{w.segment("pen"), file} {
		w.move("grant-shaped batch into "+dst.name, AppCred, heap, dst, FlagRead, 0, batch...)
		for i := range batch {
			batch[i].Page += 10_000
		}
	}

	at := int64(31_000) // heap pages nothing above has taken
	for _, n := range []int64{1, 63, 64, 65, 4_096} {
		fresh := w.segment(fmt.Sprintf("fresh-%d", n))
		w.move(fmt.Sprintf("%d pages into a fresh segment", n), AppCred, heap, fresh, 0, FlagRead, PageRange{Page: at, To: 7, Pages: n})
		at += n + 3
		w.move(fmt.Sprintf("%d pages into a named segment", n), AppCred, heap, file, FlagDirty, 0, PageRange{Page: at, To: 12_000 + at, Pages: n})
		at += n + 3
	}

	// One page far beyond an empty prefix parks in sparse; runs then move
	// around it, into it and out of it.
	parked := w.segment("parked")
	w.move("a page into sparse", AppCred, file, parked, 0, 0, PageRange{Page: 2_000, To: 10_000, Pages: 1})
	w.move("a run under it", AppCred, file, parked, 0, 0, PageRange{Page: 2_001, To: 0, Pages: 80})
	if len(parked.pages.sparse) != 1 {
		t.Fatalf("%d pages parked in sparse, want 1", len(parked.pages.sparse))
	}
	w.move("out of a source with a page in sparse", AppCred, parked, file, 0, 0, PageRange{Page: 0, To: 2_000, Pages: 80})
	w.move("a run into a destination with a page in sparse", AppCred, file, parked, FlagDirty, 0, PageRange{Page: 3_000, To: 100, Pages: 50})
	w.move("a run that parks in sparse", AppCred, file, parked, 0, FlagDirty, PageRange{Page: 3_050, To: 20_000, Pages: 10})
	if len(parked.pages.sparse) != 11 {
		t.Fatalf("%d pages parked in sparse, want 11", len(parked.pages.sparse))
	}
	w.move("out of sparse", AppCred, parked, file, 0, 0, PageRange{Page: 20_000, To: 3_050, Pages: 10})
	w.move("the parked page itself", AppCred, parked, file, 0, 0, PageRange{Page: 10_000, To: 2_080, Pages: 1})

	// Frames going home name the boot segment, and from then on its pages
	// are removed like any other's. The machine's last 1 904 frames never
	// left it; 32 of them go out and come home, and the second stocking
	// takes the lot.
	tail := int64(16 + 2*pages)
	out := PageRange{Page: tail + 100, To: 0, Pages: 32}
	away := w.segment("away")
	w.move("out of the tail", SystemCred, boot, away, 0, 0, out)
	w.move("home again", SystemCred, away, boot, 0, 0, PageRange{Page: 0, To: out.Page, Pages: 32})
	if !boot.named {
		t.Fatal("boot segment not named after frames returned to it")
	}
	w.move("second stocking, out of a named boot segment", SystemCred, boot, w.segment("donor-2"), FlagRW, 0, PageRange{Page: tail, To: 0, Pages: 1_904})
	// File pages 0..31 came from heap pages 10 100.., which came from boot
	// pages 16+pages+10 000..: their PFNs.
	home := PageRange{Page: 0, To: 16 + pages + 10_000, Pages: 32}
	w.move("back to boot", SystemCred, file, boot, 0, FlagRW, home)
	w.move("and out again", SystemCred, boot, file, 0, 0, PageRange{Page: home.To, To: home.Page, Pages: home.Pages})

	// Superpages on: the batch spelling applies a qualifying range whole.
	sw := newBulkWorld(t, 1024, Config{Superpages: true})
	staged, dst := sw.segment("staged"), sw.segment("dst")
	sw.moveBatch("boot into a fresh segment as an identity extent", SystemCred, sw.k.boot, staged, FlagRW, 0,
		PageRange{Page: 128, To: 0, Pages: 64}, PageRange{Page: 256, To: 64, Pages: 48})
	sw.moveBatch("onward whole out of an exact source extent", AppCred, staged, dst, 0, FlagWrite,
		PageRange{Page: 64, To: 0, Pages: 48}, PageRange{Page: 0, To: 64, Pages: 64})
	if st := sw.k.Stats(); st.ExtentPromotions != 2 || st.ExtentDemotions != 1 {
		t.Fatalf("%d promotions, %d demotions; want 2, 1", st.ExtentPromotions, st.ExtentDemotions)
	}
}

// A live extent inside the source range is demoted on the way — its span
// entries leave the caches ahead of its first page's — and one the range
// covers only in part goes the same way, at the range's first page.
func TestBulkMigrateAcrossLiveExtent(t *testing.T) {
	w := newBulkWorld(t, 1024, Config{Superpages: true})
	k, src, dst := w.k, w.segment("src"), w.segment("dst")
	w.move("stock", SystemCred, k.boot, src, FlagRW, 0, PageRange{Page: 256, To: 0, Pages: 256})
	w.promote(src, 64, 4)
	w.promote(src, 192, 5)
	w.move("across the extent", AppCred, src, dst, 0, FlagWrite, PageRange{Page: 0, To: 300, Pages: 200})
	w.moveBatch("into the other", AppCred, src, dst, 0, 0, PageRange{Page: 208, To: 512, Pages: 16})
	if st := k.Stats(); st.ExtentDemotions != 2 || len(src.extents) != 0 {
		t.Fatalf("%d demotions, %d live extents after the moves; want 2, 0", st.ExtentDemotions, len(src.extents))
	}
}
