package kernel

import (
	"reflect"
	"regexp"
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
// and expects CheckFrameConservation to name the damage: a frame past the
// end of memory, a frame some other page holds, or a frame recorded at a
// page that no longer holds it. A page's frame run is one frame long.
func TestConservationCatchesCorruptEntry(t *testing.T) {
	set := func(s *Segment, page int64, pfn phys.PFN) {
		e, _ := s.pages.get(page)
		e.pfn = pfn
	}
	cases := []struct {
		name    string
		corrupt func(k *Kernel, s *Segment)
		want    string
	}{
		{"past the end of memory", func(k *Kernel, s *Segment) { set(s, 0, phys.PFN(k.mem.NumFrames())) }, "beyond memory"},
		{"a frame the boot segment holds", func(_ *Kernel, s *Segment) { set(s, 0, 200) }, "held by both|recorded owner"},
		{"a run overlapping its neighbour", func(_ *Kernel, s *Segment) { set(s, 0, 65) }, "held by both"},
		{"two runs swapped", func(_ *Kernel, s *Segment) { set(s, 0, 65); set(s, 1, 64) }, "entry holds frame"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := newTestKernel(t)
			s, _ := k.CreateSegment("small", 1)
			if err := k.MigratePages(SystemCred, k.BootSegment(), s, 64, 0, 8, 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := k.CheckFrameConservation(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			c.corrupt(k, s)
			err := k.CheckFrameConservation()
			if err == nil || !regexp.MustCompile(c.want).MatchString(err.Error()) {
				t.Fatalf("CheckFrameConservation = %v, want an error matching %q", err, c.want)
			}
			set(s, 0, 64) // mend it for newTestKernel's cleanup check
			set(s, 1, 65)
		})
	}
}
