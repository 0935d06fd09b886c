package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/storage"
)

func newKernelAndManager(t *testing.T, frames int64, policy manager.Policy) (*kernel.Kernel, *manager.Generic, *storage.Store) {
	t.Helper()
	mem := phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: 2 << 20, StoreData: false})
	var clock sim.Clock
	k := kernel.New(mem, &clock, sim.DECstation5000(), kernel.Config{})
	store := storage.NewStore(&clock, storage.LocalDisk(), 4096)
	pool, err := manager.NewFixedPool(k, frames, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := manager.NewGeneric(k, manager.Config{
		Name: "replay", Source: pool,
		Backing: manager.NewSwapBacking(store),
		Policy:  policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, g, store
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var tr Trace
	tr.Append("heap", 5, true)
	tr.Append("file", 0, false)
	tr.Append("heap", 5, false)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Refs) != 3 {
		t.Fatalf("len = %d", len(got.Refs))
	}
	for i := range tr.Refs {
		if got.Refs[i] != tr.Refs[i] {
			t.Fatalf("ref %d: %+v != %+v", i, got.Refs[i], tr.Refs[i])
		}
	}
}

// Property: any generated trace survives encode/decode byte-exactly.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(pages []uint16, writes []bool) bool {
		var tr Trace
		n := len(pages)
		if len(writes) < n {
			n = len(writes)
		}
		segNames := []string{"a", "b", "c-long.name_1"}
		for i := 0; i < n; i++ {
			tr.Append(segNames[int(pages[i])%3], int64(pages[i]), writes[i])
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(got.Refs) != len(tr.Refs) {
			return false
		}
		for i := range tr.Refs {
			if got.Refs[i] != tr.Refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeToleratesCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nr seg 3\n  \n# mid\nw seg 4\n"
	tr, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Refs) != 2 || tr.Refs[1].Page != 4 || !tr.Refs[1].Write {
		t.Fatalf("trace = %+v", tr.Refs)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, in := range []string{"x seg 1\n", "r seg\n", "r seg notanumber\n", "r seg -1\n"} {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
}

// The point of the package: record once, replay under different policies,
// compare fault counts on the identical reference string.
func TestReplayComparesPoliciesOnIdenticalTrace(t *testing.T) {
	// A cyclic scan, three passes over 32 pages.
	var tr Trace
	for pass := 0; pass < 3; pass++ {
		for p := int64(0); p < 32; p++ {
			tr.Append("data", p, false)
		}
	}

	replayWith := func(policy manager.Policy) int64 {
		k, g, _ := newKernelAndManager(t, 16, policy)
		res, err := Replay(k, &tr, g.CreateManagedSegment)
		if err != nil {
			t.Fatal(err)
		}
		if res.Refs != len(tr.Refs) {
			t.Fatalf("replayed %d of %d refs", res.Refs, len(tr.Refs))
		}
		return res.Faults
	}
	clockFaults := replayWith(nil)
	mruFaults := replayWith(manager.NewMRUPolicy())
	if mruFaults >= clockFaults {
		t.Fatalf("identical trace: MRU %d vs clock %d", mruFaults, clockFaults)
	}
}

func TestReplayDeterministic(t *testing.T) {
	var tr Trace
	rng := sim.NewRNG(3)
	for i := 0; i < 300; i++ {
		tr.Append("s", rng.Int63n(40), rng.Bool(0.5))
	}
	run := func() int64 {
		k, g, _ := newKernelAndManager(t, 16, nil)
		res, err := Replay(k, &tr, g.CreateManagedSegment)
		if err != nil {
			t.Fatal(err)
		}
		return res.Faults
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic replay: %d vs %d", a, b)
	}
}

func TestSegmentsListing(t *testing.T) {
	var tr Trace
	tr.Append("b", 0, false)
	tr.Append("a", 0, false)
	tr.Append("b", 1, false)
	segs := tr.Segments()
	if len(segs) != 2 || segs[0] != "b" || segs[1] != "a" {
		t.Fatalf("segments = %v", segs)
	}
}
