package kernel

import (
	"testing"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

// TestBulkMigrateCacheState holds the range-level shortcuts of migrate — the
// never-named source skip, the page store's reserve and the table's preload
// — to the page-at-a-time definition of the operation: after each call the
// mapping table (slots, overflow set, live count, spills, drops) and the
// TLB (entries, cursor) must be what replaying the same keys one by one —
// remove and invalidate the source, insert and install the destination —
// leaves in the reference structures. Two 40 000-page ranges move out of a
// source no entry has named (boot on a fresh machine); consecutive pages of
// one segment never share a slot, but the second range's 40 000 keys land
// among the first's in a 64K-slot table, so the overflow area fills and
// drops. A third moves out of a segment whose every page is named, and the
// batch is the fill path's shape, a 32-page run, with shorter ones and one
// longer than preloadRun beside it, into a fresh segment and a named one.
func TestBulkMigrateCacheState(t *testing.T) {
	const pages = 40_000
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: (2*pages + 1920) * 4096})
	var clock sim.Clock
	k := New(mem, &clock, sim.DECstation5000(), Config{})
	table, tl := k.table.(*mappingTable), k.tlb.(*tlb)
	refTable, refTL := newRefMappingTable(hashTableSlots, hashOverflow), newRefTLB(len(tl.entries))

	segment := func(name string) *Segment {
		s, err := k.CreateSegment(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	replay := func(src, dst *Segment, ranges ...PageRange) {
		for _, r := range ranges {
			for i := int64(0); i < r.Pages; i++ {
				srcKey, dstKey := mapKey{src.id, r.Page + i}, mapKey{dst.id, r.To + i}
				refTable.remove(srcKey)
				refTL.invalidate(srcKey)
				refTable.insert(dstKey, nil)
				refTL.install(dstKey)
			}
		}
	}
	check := func(step string) {
		t.Helper()
		assertSameAsReference(t, table, refTable)
		assertNoDuplicates(t, table)
		assertTLBSameAsReference(t, tl, refTL)
		if err := k.CheckFrameConservation(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}

	donor, heap := segment("donor"), segment("heap")
	if k.boot.named {
		t.Fatal("the boot segment of a fresh machine is already named")
	}
	for i, dst := range []*Segment{donor, heap} {
		r := PageRange{Page: 16 + int64(i)*pages, To: 100 * int64(i), Pages: pages}
		if err := k.MigratePages(SystemCred, k.boot, dst, r.Page, r.To, r.Pages, 0, 0); err != nil {
			t.Fatal(err)
		}
		replay(k.boot, dst, r)
		check("out of the never-named boot segment")
		if k.boot.named || !dst.named {
			t.Fatalf("named: boot %v, %s %v; want false, true", k.boot.named, dst.name, dst.named)
		}
	}
	if _, _, spills, drops := table.stats(); spills < hashOverflow || drops == 0 {
		t.Fatalf("%d spills and %d drops: the ranges did not fill the overflow area", spills, drops)
	}

	file := segment("file")
	if err := k.MigratePages(AppCred, donor, file, 0, 2_000, pages, 0, 0); err != nil {
		t.Fatal(err)
	}
	replay(donor, file, PageRange{Page: 0, To: 2_000, Pages: pages})
	check("out of the named donor segment")

	batch := []PageRange{
		{Page: 100, To: 0, Pages: 32},
		{Page: 5_000, To: 40, Pages: 15},
		{Page: 9_000, To: 200, Pages: 16},
		{Page: 300, To: 60, Pages: 1},
		{Page: 20_000, To: 1_000, Pages: preloadRun + 19},
	}
	// Into a segment nothing has named (its first run is preloaded), then
	// the same shape into a named one.
	for _, dst := range []*Segment{segment("pen"), file} {
		if err := k.MigratePagesBatch(AppCred, heap, dst, batch, FlagRead, 0); err != nil {
			t.Fatal(err)
		}
		replay(heap, dst, batch...)
		check("grant-shaped batch into " + dst.name)
		for i := range batch {
			batch[i].Page += 10_000
		}
	}

	// Frames going home name the boot segment, and from then on its pages
	// are removed like any other's. File pages 0..31 came from heap pages
	// 10 100.., which came from boot pages 16+pages+10 000..: their PFNs.
	home := PageRange{Page: 0, To: 16 + pages + 10_000, Pages: 32}
	if err := k.MigratePages(SystemCred, file, k.boot, home.Page, home.To, home.Pages, 0, 0); err != nil {
		t.Fatal(err)
	}
	replay(file, k.boot, home)
	if err := k.MigratePages(SystemCred, k.boot, file, home.To, home.Page, home.Pages, 0, 0); err != nil {
		t.Fatal(err)
	}
	replay(k.boot, file, PageRange{Page: home.To, To: home.Page, Pages: home.Pages})
	check("back to boot and out again")
	if !k.boot.named {
		t.Fatal("boot segment not named after frames returned to it")
	}
}
