package kernel

import (
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"unsafe"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

// TestPageEntryLayout pins the page entry at 8 pointer-free bytes: the
// dense page store holds it in place, so the boot segment's entries are one
// allocation the collector never scans.
func TestPageEntryLayout(t *testing.T) {
	if size := unsafe.Sizeof(pageEntry{}); size != 8 {
		t.Fatalf("pageEntry is %d bytes, want 8", size)
	}
	typ := reflect.TypeOf(pageEntry{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.String, reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("pageEntry.%s is a %s: the entry must hold no pointer", f.Name, f.Type)
		}
	}
}

// TestHashSlotLayout pins the mapping-table slot at one 8-byte word: key,
// span order, valid and spilled bits packed together, so the 64 K-slot
// table is 512 KB.
func TestHashSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(hashSlot(0)); size != 8 {
		t.Fatalf("hashSlot is %d bytes, want 8", size)
	}
}

// TestPageStoreDensePutAllocatesNothing: a put into a reserved dense prefix
// stores the entry in place. Boxing it there — taking the parameter's
// address for the sparse arm — would cost one allocation per put, 32 768
// per boot.
func TestPageStoreDensePutAllocatesNothing(t *testing.T) {
	var ps pageStore
	ps.reserve(0, 64)
	page := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		ps.put(page%64, pageEntry{pfn: phys.PFN(page)})
		page++
	})
	if allocs != 0 {
		t.Fatalf("dense put allocates %v times", allocs)
	}
	if ps.len() != 64 {
		t.Fatalf("len = %d, want 64", ps.len())
	}
}

// TestNewAllocationsIndependentOfMemory: booting a kernel allocates the same
// small number of objects whatever the machine's size — the boot segment's
// entries are built in place, not one object per frame.
func TestNewAllocationsIndependentOfMemory(t *testing.T) {
	boot := func(frames int64) float64 {
		mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: frames * 4096})
		return testing.AllocsPerRun(5, func() { New(mem, new(sim.Clock), sim.DECstation5000(), Config{}) })
	}
	boot(256) // the process's first boot allocates once more, whatever the size
	small, large := boot(256), boot(32768)
	if small != large {
		t.Fatalf("New allocates %v objects over 256 frames but %v over 32 768", small, large)
	}
	if large > 16 && !raceEnabled {
		t.Fatalf("New allocates %v objects, want at most 16", large)
	}
}

// raceEnabled is set under -race (race_test.go), whose runtime allocates on
// paths that allocate nothing in a normal build.
var raceEnabled bool

// TestConservationCatchesCorruptEntry corrupts page entries' frame numbers
// and expects CheckFrameConservation to name the damage: a run reaching past
// the end of memory, a frame some other page holds, or a frame recorded at
// a page whose run no longer covers it.
func TestConservationCatchesCorruptEntry(t *testing.T) {
	set := func(s *Segment, page int64, pfn phys.PFN) {
		e, _ := s.pages.get(page)
		e.pfn = pfn
	}
	cases := []struct {
		name    string
		fpp     int
		corrupt func(k *Kernel, s *Segment)
		want    string
	}{
		{"past the end of memory", 1, func(k *Kernel, s *Segment) { set(s, 0, phys.PFN(k.mem.NumFrames())) }, "beyond memory"},
		{"large page straddling the end", 4, func(k *Kernel, s *Segment) { set(s, 0, phys.PFN(k.mem.NumFrames()-2)) }, "beyond memory"},
		{"a frame the boot segment holds", 1, func(_ *Kernel, s *Segment) { set(s, 0, 200) }, "held by both|recorded owner"},
		{"a run overlapping its neighbour", 4, func(_ *Kernel, s *Segment) { set(s, 0, 66) }, "held by both"},
		{"two runs swapped", 4, func(_ *Kernel, s *Segment) { set(s, 0, 68); set(s, 1, 64) }, "entry holds other frames"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := newTestKernel(t)
			small, _ := k.CreateSegment("small", 1)
			if err := k.MigratePages(SystemCred, k.BootSegment(), small, 64, 0, 8, 0, 0); err != nil {
				t.Fatal(err)
			}
			s := small
			if c.fpp > 1 {
				big, _ := k.CreateSegment("big", c.fpp)
				if err := k.MigrateCoalesced(AppCred, small, big, []PageRange{{Page: 0, To: 0, Pages: int64(8 / c.fpp)}}, 0, 0); err != nil {
					t.Fatal(err)
				}
				s = big
			}
			if err := k.CheckFrameConservation(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			c.corrupt(k, s)
			err := k.CheckFrameConservation()
			if err == nil || !regexp.MustCompile(c.want).MatchString(err.Error()) {
				t.Fatalf("CheckFrameConservation = %v, want an error matching %q", err, c.want)
			}
		})
	}
}

// TestLargePageRunKeepsData is a property test of the large-page run:
// contiguous base pages coalesce into large pages, every byte written
// through the large pages' frames survives a split and a second coalesce,
// and a large page's frames are always the fpp consecutive PFNs starting at
// its entry's pfn.
func TestLargePageRunKeepsData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		k := newTestKernel(t)
		fpp := 1 << (1 + rng.Intn(3)) // 2, 4 or 8 frames per page
		pages := 1 + rng.Intn(4)
		n := int64(fpp * pages)
		first := int64(rng.Intn(k.mem.NumFrames() - int(n) + 1))
		small, _ := k.CreateSegment("small", 1)
		big, _ := k.CreateSegment("big", fpp)
		if err := k.MigratePages(SystemCred, k.BootSegment(), small, first, 0, n, 0, 0); err != nil {
			t.Fatal(err)
		}
		checkRun := func(stage string) {
			t.Helper()
			for p := int64(0); p < int64(pages); p++ {
				e, ok := big.pages.get(p)
				if !ok {
					t.Fatalf("trial %d %s: large page %d absent", trial, stage, p)
				}
				want := make([]phys.PFN, fpp)
				for i := range want {
					want[i] = e.pfn + phys.PFN(i)
				}
				if got := big.FramesAt(p); !slices.Equal(got, want) {
					t.Fatalf("trial %d %s: FramesAt(%d) = %v, want %v", trial, stage, p, got, want)
				}
			}
		}
		if err := k.MigrateCoalesced(AppCred, small, big, []PageRange{{Page: 0, To: 0, Pages: int64(pages)}}, FlagRW, 0); err != nil {
			t.Fatal(err)
		}
		checkRun("first coalesce")
		want := make([][]byte, 0, n)
		for p := int64(0); p < int64(pages); p++ {
			for _, pfn := range big.FramesAt(p) {
				b := make([]byte, 4096)
				rng.Read(b)
				copy(k.mem.Frame(pfn).Data(), b)
				want = append(want, b)
			}
		}
		if err := k.MigrateSplit(AppCred, big, small, []PageRange{{Page: 0, To: 0, Pages: int64(pages)}}, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := k.MigrateCoalesced(AppCred, small, big, []PageRange{{Page: 0, To: 0, Pages: int64(pages)}}, FlagRW, 0); err != nil {
			t.Fatal(err)
		}
		checkRun("second coalesce")
		i := 0
		for p := int64(0); p < int64(pages); p++ {
			for j, pfn := range big.FramesAt(p) {
				if !slices.Equal(k.mem.Frame(pfn).Data(), want[i]) {
					t.Fatalf("trial %d: large page %d frame %d lost its bytes", trial, p, j)
				}
				i++
			}
		}
		if err := k.CheckFrameConservation(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
