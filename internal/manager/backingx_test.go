package manager

import (
	"bytes"
	"testing"
	"testing/quick"

	"epcm/internal/kernel"
	"epcm/internal/phys"
)

// Property: RLE round-trips arbitrary compressible data exactly, and
// returns nil (fallback) rather than a lossy encoding otherwise.
func TestRLERoundTripProperty(t *testing.T) {
	f := func(runs []byte) bool {
		// Build a page from the run description: each byte b contributes a
		// run of (b%17)+1 copies of b.
		buf := make([]byte, 0, 4096)
		for _, b := range runs {
			n := int(b%17) + 1
			for i := 0; i < n && len(buf) < 4096; i++ {
				buf = append(buf, b)
			}
		}
		for len(buf) < 4096 {
			buf = append(buf, 0)
		}
		img := rleCompress(buf)
		if img == nil {
			return true // fallback is always safe
		}
		out := make([]byte, 4096)
		rleDecompress(img, out)
		return bytes.Equal(buf, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRLERejectsIncompressible(t *testing.T) {
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if img := rleCompress(buf); img != nil {
		t.Fatalf("incompressible page compressed to %d bytes", len(img))
	}
}

func TestCompressedBackingRoundTrip(t *testing.T) {
	fx := newFixture(t, 16)
	cb := NewCompressedBacking(fx.store)
	g := fx.newManager(t, Config{Name: "m", Backing: cb})
	seg, _ := g.CreateManagedSegment("heap")
	if err := fx.k.Access(seg, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	// A sparse page: mostly zeros with a few values — the common heap case.
	seg.FrameAt(0).Data()[10] = 0xAB
	seg.FrameAt(0).Data()[2000] = 0xCD
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 0, 1, 0, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	writes := fx.store.Writes()
	if _, err := g.Reclaim(1, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	if fx.store.Writes() != writes {
		t.Fatal("compressible page went to the store")
	}
	if cb.PagesStored() != 1 || cb.CompressionRatio() < 10 {
		t.Fatalf("stored=%d ratio=%.1f", cb.PagesStored(), cb.CompressionRatio())
	}
	// Evict the association so the refault must decompress.
	if err := fx.k.Access(seg, 50, kernel.Write); err != nil {
		t.Fatal(err)
	}
	if err := fx.k.Access(seg, 0, kernel.Read); err != nil {
		t.Fatal(err)
	}
	d := seg.FrameAt(0).Data()
	if d[10] != 0xAB || d[2000] != 0xCD || d[11] != 0 {
		t.Fatal("decompressed page wrong")
	}
}

func TestCompressedBackingFallsBack(t *testing.T) {
	fx := newFixture(t, 16)
	cb := NewCompressedBacking(fx.store)
	g := fx.newManager(t, Config{Name: "m", Backing: cb})
	seg, _ := g.CreateManagedSegment("heap")
	if err := fx.k.Access(seg, 0, kernel.Write); err != nil {
		t.Fatal(err)
	}
	data := seg.FrameAt(0).Data()
	for i := range data {
		data[i] = byte(i*13 + 7)
	}
	if err := fx.k.ModifyPageFlags(kernel.AppCred, seg, 0, 1, 0, kernel.FlagReferenced); err != nil {
		t.Fatal(err)
	}
	writes := fx.store.Writes()
	if _, err := g.Reclaim(1, phys.AnyFrame()); err != nil {
		t.Fatal(err)
	}
	if fx.store.Writes() != writes+1 || cb.Fallbacks() != 1 {
		t.Fatal("incompressible page should go to the store")
	}
	// Round trip through the store.
	if err := fx.k.Access(seg, 50, kernel.Write); err != nil {
		t.Fatal(err)
	}
	if err := fx.k.Access(seg, 0, kernel.Read); err != nil {
		t.Fatal(err)
	}
	if seg.FrameAt(0).Data()[100] != byte((100*13+7)%256) {
		t.Fatal("fallback round trip lost data")
	}
}
