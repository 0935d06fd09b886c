package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"epcm/internal/sim"
)

// storedBlocks counts the blocks the store holds bytes for.
func (s *Store) storedBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, f := range s.files {
		n += len(f.blocks)
	}
	return n
}

// peek returns a copy of the block's contents without counting, charging or
// calling the fault hook.
func (s *Store) peek(name string, block int64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]byte, s.blockSize)
	if f := s.files[name]; f != nil {
		copy(out, f.blocks[block])
	}
	return out
}

// refStore is the oracle for Store: every written block is kept in full,
// zeros included, with one map per file and a separate size map, as the
// store did before zero blocks became holes. Preload leaves earlier counts
// alone.
type refStore struct {
	now       time.Duration
	model     LatencyModel
	blockSize int
	files     map[string]map[int64][]byte
	sizes     map[string]int64
	reads     int64
	writes    int64
	charge    bool
	hook      FaultHook
}

func newRefStore(model LatencyModel, blockSize int) *refStore {
	return &refStore{model: model, blockSize: blockSize, files: map[string]map[int64][]byte{},
		sizes: map[string]int64{}, charge: true}
}

func (r *refStore) chargeAccess(n int) {
	if r.charge {
		r.now += r.model.PerAccess + time.Duration(n)*r.model.PerByte
	}
}

func (r *refStore) check(op, name string, block int64, n int) error {
	if block < 0 {
		return fmt.Errorf("storage: %s %q block %d: negative block", op, name, block)
	}
	if n > r.blockSize {
		return fmt.Errorf("storage: %s %q block %d: buffer %d exceeds block size %d",
			op, name, block, n, r.blockSize)
	}
	return nil
}

func (r *refStore) Fetch(name string, block int64, buf []byte) error {
	if err := r.check("fetch", name, block, len(buf)); err != nil {
		return err
	}
	r.reads++
	r.chargeAccess(len(buf))
	if r.hook != nil {
		if inj := r.hook(OpFetch, name, block); inj != nil {
			return inj.Err
		}
	}
	data, ok := r.files[name][block]
	if !ok {
		clear(buf)
		return nil
	}
	copy(buf, data)
	return nil
}

func (r *refStore) Store(name string, block int64, buf []byte) error {
	if err := r.check("store", name, block, len(buf)); err != nil {
		return err
	}
	r.writes++
	r.chargeAccess(len(buf))
	if r.hook != nil {
		if inj := r.hook(OpStore, name, block); inj != nil {
			if half := len(buf) / 2; inj.Torn && half > 0 {
				r.write(name, block, buf[:half], false)
			}
			return inj.Err
		}
	}
	r.write(name, block, buf, true)
	return nil
}

// write puts buf at the start of the block; pad zero-fills the rest.
func (r *refStore) write(name string, block int64, buf []byte, pad bool) {
	f := r.files[name]
	if f == nil {
		f = map[int64][]byte{}
		r.files[name] = f
	}
	data := f[block]
	if data == nil {
		data = make([]byte, r.blockSize)
		f[block] = data
	}
	copy(data, buf)
	if pad {
		clear(data[len(buf):])
	}
	if block+1 > r.sizes[name] {
		r.sizes[name] = block + 1
	}
}

func (r *refStore) Preload(name string, blocks int64, fill func(int64, []byte)) {
	charge, writes := r.charge, r.writes
	r.charge = false
	buf := make([]byte, r.blockSize)
	for b := int64(0); b < blocks; b++ {
		if fill != nil {
			fill(b, buf)
		}
		if err := r.Store(name, b, buf); err != nil {
			panic(err)
		}
	}
	r.charge, r.writes = charge, writes
}

func (r *refStore) peek(name string, block int64) []byte {
	out := make([]byte, r.blockSize)
	copy(out, r.files[name][block])
	return out
}

// nonZeroBlocks counts the blocks holding a non-zero byte.
func (r *refStore) nonZeroBlocks() int {
	n := 0
	for _, f := range r.files {
		for _, data := range f {
			if !bytes.Equal(data, make([]byte, len(data))) {
				n++
			}
		}
	}
	return n
}

// scriptHook injects the fault armed last, once, and counts its calls.
type scriptHook struct {
	armed *InjectedFault
	calls int
}

func (h *scriptHook) hook(Op, string, int64) *InjectedFault {
	h.calls++
	inj := h.armed
	h.armed = nil
	return inj
}

var storeFuzzSizes = [...]int{16, 4096, 10000}

// FuzzStore runs one op script on a Store and on refStore and compares
// every touched block, every size, both counts, the clock, the hook calls
// and the number of blocks stored (only the non-zero ones) after each op.
// A script is a block-size byte followed by four-byte ops
// [kind, name<<4|block, a, b]:
//
//	0 store zeros    1 store a region of a filled with b|1
//	2 store a short buffer (length from a) of b
//	3 fetch          4 fetch a short buffer (length from a)
//	5 Size           6 Preload a%12 blocks, nil fill
//	7 Preload a%12 blocks, a fill that zeroes some blocks
//	8 SetCharging(a odd)
//	9 hook: a%4 = remove, arm an error, arm a torn write, arm a transient error
//	10 invalid: a negative block or an oversized buffer
func FuzzStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		bs := storeFuzzSizes[int(script[0])%len(storeFuzzSizes)]
		script = script[1:]
		var clock sim.Clock
		s := NewStore(&clock, LocalDisk(), bs)
		r := newRefStore(LocalDisk(), bs)
		var sh, rh scriptHook
		type key struct {
			name  string
			block int64
		}
		touched := map[key]bool{}
		names := [...]string{"a", "b"}
		region := func(a, b byte) []byte {
			buf := make([]byte, bs)
			unit := max(bs/16, 1)
			lo := min(int(a&0xF)*unit, bs)
			hi := min(lo+(1+int(a>>4))*unit, bs)
			for i := lo; i < hi; i++ {
				buf[i] = b | 1
			}
			return buf
		}
		short := func(a byte) int { return 1 + int(a)*(bs-1)/255 }
		for i := 0; i+4 <= len(script); i += 4 {
			kind, nb, a, b := script[i]%11, script[i+1], script[i+2], script[i+3]
			name, block := names[nb>>4&1], int64(nb&0xF)%12
			var err, rerr error
			switch kind {
			case 0, 1, 2:
				var buf []byte
				switch kind {
				case 0:
					buf = make([]byte, bs)
				case 1:
					buf = region(a, b)
				case 2:
					buf = bytes.Repeat([]byte{b}, short(a))
				}
				touched[key{name, block}] = true
				err, rerr = s.Store(name, block, buf), r.Store(name, block, buf)
			case 3, 4:
				n := bs
				if kind == 4 {
					n = short(a)
				}
				got, want := bytes.Repeat([]byte{0xAA}, n), bytes.Repeat([]byte{0xAA}, n)
				err, rerr = s.Fetch(name, block, got), r.Fetch(name, block, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("op %d: fetch %s/%d read %x, want %x", i/4, name, block, got, want)
				}
			case 5:
				if got, want := s.Size(name), r.sizes[name]; got != want {
					t.Fatalf("op %d: Size(%s) = %d, want %d", i/4, name, got, want)
				}
			case 6, 7:
				n := int64(a % 12)
				var fill func(int64, []byte)
				if kind == 7 {
					fill = func(blk int64, buf []byte) {
						if (blk+int64(b))%3 == 0 {
							clear(buf)
							return
						}
						buf[int(blk)%len(buf)] = b | 1
					}
				}
				sh.armed, rh.armed = nil, nil // an injected error makes Preload panic
				for blk := int64(0); blk < n; blk++ {
					touched[key{name, blk}] = true
				}
				s.Preload(name, n, fill)
				r.Preload(name, n, fill)
			case 8:
				s.SetCharging(a&1 == 1)
				r.charge = a&1 == 1
			case 9:
				if a%4 == 0 {
					s.SetFaultHook(nil)
					r.hook = nil
					break
				}
				inj := &InjectedFault{Err: fmt.Errorf("%w (script op %d)", ErrInjected, i/4)}
				switch a % 4 {
				case 2:
					inj.Torn = true
				case 3:
					inj.Err = fmt.Errorf("%w: %w", ErrTransient, inj.Err)
				}
				sh.armed, rh.armed = inj, inj
				s.SetFaultHook(sh.hook)
				r.hook = rh.hook
			case 10:
				if a&1 == 0 {
					err, rerr = s.Store(name, -1, nil), r.Store(name, -1, nil)
				} else {
					big := make([]byte, bs+1)
					err, rerr = s.Fetch(name, block, big), r.Fetch(name, block, big)
				}
			}
			if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
				t.Fatalf("op %d (kind %d): err %v, want %v", i/4, kind, err, rerr)
			}
			if err != nil && errors.Is(err, ErrInjected) != errors.Is(rerr, ErrInjected) {
				t.Fatalf("op %d: injected error lost its identity: %v", i/4, err)
			}
			for k := range touched {
				if got, want := s.peek(k.name, k.block), r.peek(k.name, k.block); !bytes.Equal(got, want) {
					t.Fatalf("op %d (kind %d): block %s/%d holds %x, want %x", i/4, kind, k.name, k.block, got, want)
				}
			}
			for _, n := range names {
				if got, want := s.Size(n), r.sizes[n]; got != want {
					t.Fatalf("op %d (kind %d): Size(%s) = %d, want %d", i/4, kind, n, got, want)
				}
			}
			if s.Reads() != r.reads || s.Writes() != r.writes {
				t.Fatalf("op %d (kind %d): reads/writes %d/%d, want %d/%d",
					i/4, kind, s.Reads(), s.Writes(), r.reads, r.writes)
			}
			if clock.Now() != r.now {
				t.Fatalf("op %d (kind %d): clock %v, want %v", i/4, kind, clock.Now(), r.now)
			}
			if got, want := s.storedBlocks(), r.nonZeroBlocks(); got != want {
				t.Fatalf("op %d (kind %d): %d blocks stored, want the %d non-zero ones", i/4, kind, got, want)
			}
			if sh.calls != rh.calls {
				t.Fatalf("op %d (kind %d): %d hook calls, want %d", i/4, kind, sh.calls, rh.calls)
			}
		}
	})
}

// TestPreloadKeepsEarlierCounts: Preload leaves uncounted only the writes it
// makes itself, not the reads and writes made before it.
func TestPreloadKeepsEarlierCounts(t *testing.T) {
	var clock sim.Clock
	s := NewStore(&clock, LocalDisk(), 4096)
	buf := make([]byte, 4096)
	buf[0] = 1
	if err := s.Store("a", 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Fetch("a", 0, buf); err != nil {
		t.Fatal(err)
	}
	s.Preload("b", 8, nil)
	if s.Reads() != 1 || s.Writes() != 1 {
		t.Fatalf("after Preload reads=%d writes=%d, want 1 and 1", s.Reads(), s.Writes())
	}
}

// TestStoreZeroBlocksAreHoles: a block of zeros holds no memory, whether it
// comes from a nil Preload, a Store of zeros or zeros written over data,
// and a hole still reads, sizes and charges like a stored block.
func TestStoreZeroBlocksAreHoles(t *testing.T) {
	var clock sim.Clock
	model := LocalDisk()
	page := model.PerAccess + 4096*model.PerByte
	s := NewStore(&clock, model, 4096)
	s.Preload("pre", 16384, nil)
	if n := s.storedBlocks(); n != 0 {
		t.Fatalf("nil Preload of 16384 blocks stored %d", n)
	}
	if s.Size("pre") != 16384 || clock.Now() != 0 {
		t.Fatalf("nil Preload: Size %d, charged %v", s.Size("pre"), clock.Now())
	}
	zeros := make([]byte, 4096)
	for b := int64(0); b < 4096; b++ {
		if err := s.Store("z", b, zeros); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.storedBlocks(); n != 0 {
		t.Fatalf("4096 zero Stores stored %d blocks", n)
	}
	if s.Size("z") != 4096 || s.Writes() != 4096 || clock.Now() != 4096*page {
		t.Fatalf("zero Stores: Size %d, writes %d, charged %v; want 4096, 4096, %v",
			s.Size("z"), s.Writes(), clock.Now(), 4096*page)
	}
	data := make([]byte, 4096)
	data[4095] = 7
	if err := s.Store("z", 9000, data); err != nil {
		t.Fatal(err)
	}
	if n := s.storedBlocks(); n != 1 || s.Size("z") != 9001 {
		t.Fatalf("non-zero Store: %d blocks stored, Size %d; want 1, 9001", n, s.Size("z"))
	}
	if err := s.Store("z", 9000, zeros); err != nil {
		t.Fatal(err)
	}
	if n := s.storedBlocks(); n != 0 || s.Size("z") != 9001 {
		t.Fatalf("zeros over data: %d blocks stored, Size %d; want 0, 9001", n, s.Size("z"))
	}
	before := clock.Now()
	buf := bytes.Repeat([]byte{0xEE}, 4096)
	if err := s.Fetch("z", 9000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, zeros) || s.Reads() != 1 || clock.Now()-before != page {
		t.Fatalf("hole fetch: zeros %v, reads %d, charged %v; want true, 1, %v",
			bytes.Equal(buf, zeros), s.Reads(), clock.Now()-before, page)
	}
}
