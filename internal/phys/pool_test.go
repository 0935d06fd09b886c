package phys

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func poolMem(store bool) *Memory {
	return NewMemory(Config{FrameSize: 4096, TotalBytes: 1 << 20, StoreData: store})
}

// PutBuffer returns a buffer obtained from GetBuffer (or surrendered by a
// frame) to the pool, so the tests can seed it with a buffer of their own.
// Buffers of the wrong size are dropped.
func (m *Memory) PutBuffer(buf []byte) {
	if len(buf) != m.frameSize {
		return
	}
	m.bufPool.Put(&buf)
}

func TestBufferPoolRoundTrip(t *testing.T) {
	m := poolMem(true)
	buf := m.GetBuffer()
	if len(buf) != 4096 {
		t.Fatalf("buffer size %d", len(buf))
	}
	m.PutBuffer(buf)
	m.PutBuffer(make([]byte, 100)) // wrong size: silently dropped
	again := m.GetBuffer()
	if len(again) != 4096 {
		t.Fatalf("recycled buffer size %d", len(again))
	}
}

func TestFrameFillWritesFrameData(t *testing.T) {
	m := poolMem(true)
	f := m.Frame(3)
	err := f.Fill(func(buf []byte) error {
		for i := range buf {
			buf[i] = 0xAB
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Data()[0] != 0xAB || f.Data()[4095] != 0xAB {
		t.Fatalf("fill did not reach frame data: %x %x", f.Data()[0], f.Data()[4095])
	}
}

func TestFrameFillErrorLeavesFrameUntouched(t *testing.T) {
	m := poolMem(true)
	f := m.Frame(4)
	boom := errors.New("device error")
	err := f.Fill(func(buf []byte) error {
		buf[0] = 0xFF // partial write before failing
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The frame never took the buffer: it still reads as zeros.
	if f.Data()[0] != 0 {
		t.Fatalf("failed fill leaked %x into the frame", f.Data()[0])
	}
}

func TestFrameFillMetadataOnlyChargesWithoutStoring(t *testing.T) {
	m := poolMem(false)
	f := m.Frame(0)
	called := false
	if err := f.Fill(func(buf []byte) error {
		called = true
		if len(buf) != 4096 {
			t.Fatalf("scratch size %d", len(buf))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("fill callback not invoked")
	}
	if f.Data() != nil {
		t.Fatal("metadata-only frame grew data")
	}
}

func TestFrameWithDataSeesZerosForUntouchedFrame(t *testing.T) {
	m := poolMem(true)
	// Dirty the pool so scratch reuse would expose missing zeroing.
	dirty := m.GetBuffer()
	for i := range dirty {
		dirty[i] = 0xEE
	}
	m.PutBuffer(dirty)
	f := m.Frame(7)
	if err := f.WithData(func(buf []byte) error {
		if !bytes.Equal(buf, make([]byte, 4096)) {
			t.Fatal("untouched frame did not read as zeros")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// WithData must not permanently allocate for a read.
	if f.bytes() != nil {
		t.Fatal("WithData allocated backing data for a read")
	}
}

func TestFrameAdopt(t *testing.T) {
	m := poolMem(true)
	f := m.Frame(9)
	buf := m.GetBuffer()
	for i := range buf {
		buf[i] = 0x5C
	}
	f.Adopt(buf)
	if f.Data()[100] != 0x5C {
		t.Fatalf("adopted contents lost: %x", f.Data()[100])
	}
	// Adopting again recycles the previous buffer rather than leaking it.
	buf2 := m.GetBuffer()
	clear(buf2)
	f.Adopt(buf2)
	if f.Data()[100] != 0 {
		t.Fatalf("second adopt not visible: %x", f.Data()[100])
	}
}

func TestFrameAdoptWrongSizePanics(t *testing.T) {
	m := poolMem(true)
	defer func() {
		if recover() == nil {
			t.Fatal("Adopt of wrong-size buffer did not panic")
		}
	}()
	m.Frame(0).Adopt(make([]byte, 100))
}

func TestFrameAdoptMetadataOnlyIsNoop(t *testing.T) {
	m := poolMem(false)
	f := m.Frame(0)
	f.Adopt(make([]byte, 4096))
	if f.Data() != nil {
		t.Fatal("metadata-only frame adopted data")
	}
}

func TestStoresData(t *testing.T) {
	if !poolMem(true).Frame(0).StoresData() {
		t.Fatal("StoreData memory reports no data")
	}
	if poolMem(false).Frame(0).StoresData() {
		t.Fatal("metadata-only memory reports data")
	}
}

func TestCopyFromUntouchedPairStaysUnallocated(t *testing.T) {
	m := poolMem(true)
	src, dst := m.Frame(1), m.Frame(2)
	dst.CopyFrom(src) // both untouched: both read as zeros, no allocation needed
	if src.bytes() != nil || dst.bytes() != nil {
		t.Fatal("copy between untouched frames allocated backing data")
	}
	if dst.Data()[0] != 0 {
		t.Fatal("destination does not read as zeros")
	}
}

// Adopt makes buf — which must be exactly one frame in size — the frame's
// contents without copying. Ownership of buf passes to the frame; the
// frame's previous backing buffer, if any, returns to the memory's pool.
// When the memory stores no data, buf is simply recycled.
func (f *Frame) Adopt(buf []byte) {
	if len(buf) != f.mem.frameSize {
		panic(fmt.Sprintf("phys: Adopt buffer of %d bytes into %d-byte frame", len(buf), f.mem.frameSize))
	}
	if !f.mem.storeData {
		f.mem.PutBuffer(buf)
		return
	}
	d := &f.mem.data[f.pfn]
	if *d != nil {
		f.mem.PutBuffer(*d)
	}
	*d = buf
}
