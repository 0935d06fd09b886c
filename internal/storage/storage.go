// Package storage models the backing store behind segment managers: block
// stores with latency models for a local disk of the period and for a
// diskless workstation's network file server (the paper's V++ machine is
// diskless, served by a DECstation 3100 running Ultrix 4.1).
//
// Managers call Fetch and Store to move page-sized blocks between frames
// and backing store; the latency is charged to the virtual clock, which is
// how page-fault I/O time enters every experiment. Only that latency and
// the transfer unit are modelled, so a block of zeros is a hole: it costs
// the same I/O as any other block but holds no memory, and a store holds
// memory in proportion to its non-zero data.
package storage

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"epcm/internal/sim"
)

// BlockStore is a persistent array of fixed-size blocks addressed by file
// name and block number. Implementations charge their access latency to a
// virtual clock.
type BlockStore interface {
	// Fetch reads block `block` of file `name` into buf and charges the
	// access latency. Reading a never-written block yields zeros.
	Fetch(name string, block int64, buf []byte) error
	// Store writes buf to block `block` of file `name` and charges the
	// access latency.
	Store(name string, block int64, buf []byte) error
	// Size reports the number of blocks ever written to the file.
	Size(name string) int64
	// BlockSize reports the store's block size in bytes.
	BlockSize() int
	// Reads and Writes report operation counts for instrumentation.
	Reads() int64
	Writes() int64
}

// LatencyModel describes one storage device's timing.
type LatencyModel struct {
	// PerAccess is the fixed cost of one block access (seek + rotation for
	// a disk; request round-trip for a network server).
	PerAccess time.Duration
	// PerByte is the transfer cost per byte.
	PerByte time.Duration
	// Name labels the device in diagnostics.
	Name string
}

// LocalDisk is a period-appropriate local SCSI disk: ~16 ms per 4 KB page.
func LocalDisk() LatencyModel {
	return LatencyModel{PerAccess: 15 * time.Millisecond, PerByte: 250 * time.Nanosecond, Name: "local-disk"}
}

// NetworkServer is the diskless configuration: a file server reached over
// 10 Mb/s Ethernet, ~20 ms per 4 KB page including the server's own disk.
func NetworkServer() LatencyModel {
	return LatencyModel{PerAccess: 17 * time.Millisecond, PerByte: 800 * time.Nanosecond, Name: "network-server"}
}

// Memory-resident store latency (for pre-cached experiment setups where the
// paper deliberately eliminates device time).
func Prefilled() LatencyModel {
	return LatencyModel{Name: "prefilled"}
}

// Op distinguishes the two block operations for fault hooks.
type Op uint8

// Block operations.
const (
	OpFetch Op = iota
	OpStore
)

func (o Op) String() string {
	if o == OpStore {
		return "store"
	}
	return "fetch"
}

// InjectedFault is a failure a FaultHook orders the store to produce.
type InjectedFault struct {
	// Err is returned from the operation. It should wrap ErrInjected (and
	// ErrTransient when the failure is retryable) so errors.Is works
	// through manager retry paths.
	Err error
	// Torn, on a store operation, persists the first half of the buffer
	// before Err surfaces — a torn write: later reads of the block see the
	// new prefix and the old suffix.
	Torn bool
}

// FaultHook inspects every Fetch and Store before it executes and may
// inject a failure by returning a non-nil InjectedFault. The device latency
// is still charged: a failed access takes time. A nil hook costs one branch
// on the I/O path, keeping the zero-overhead property when no fault plane
// is armed.
type FaultHook func(op Op, name string, block int64) *InjectedFault

// Store is the standard BlockStore implementation. It keeps only the blocks
// that hold non-zero bytes: a block never written, or last written with
// zeros, is a hole that reads as zeros, so the memory a Store holds is
// proportional to its non-zero data. Holes change no charge or count.
//
// It is safe for concurrent use: one mutex serializes block accesses, which
// stands in for the single server/device queue the paper's diskless
// workstation talks to. Managers that should not contend (the
// multi-application throughput experiment) get a store each.
type Store struct {
	clock     *sim.Clock
	stripe    uint64 // clock stripe key: a store each, a cache line each
	model     LatencyModel
	blockSize int
	mu        sync.Mutex
	files     map[string]*file
	reads     int64
	writes    int64
	// chargeLatency can be disabled for setup phases (pre-loading files
	// before a measured run, as the paper does by running applications
	// "with the files they read cached in memory").
	charge bool
	hook   FaultHook
}

// file is one file's record: its non-zero blocks and its size in blocks,
// holes included.
type file struct {
	blocks map[int64][]byte
	size   int64
}

// zeroPage is what a written block is compared against to find a hole.
var zeroPage [4096]byte

// isZero reports whether buf holds only zero bytes.
func isZero(buf []byte) bool {
	for len(buf) > len(zeroPage) {
		if !bytes.Equal(buf[:len(zeroPage)], zeroPage[:]) {
			return false
		}
		buf = buf[len(zeroPage):]
	}
	return bytes.Equal(buf, zeroPage[:len(buf)])
}

// storeSeq numbers the stores built so far; it only picks clock stripes.
var storeSeq atomic.Uint64

// NewStore builds a block store over the given clock and latency model.
func NewStore(clock *sim.Clock, model LatencyModel, blockSize int) *Store {
	if blockSize <= 0 {
		panic(fmt.Sprintf("storage: bad block size %d", blockSize))
	}
	return &Store{
		clock:     clock,
		stripe:    storeSeq.Add(1),
		model:     model,
		blockSize: blockSize,
		files:     make(map[string]*file),
		charge:    true,
	}
}

// SetCharging enables or disables latency charging (setup vs measured run).
func (s *Store) SetCharging(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.charge = on
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
func (s *Store) SetFaultHook(h FaultHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// BlockSize reports the block size.
func (s *Store) BlockSize() int { return s.blockSize }

// Latency returns the store's device timing.
func (s *Store) Latency() LatencyModel { return s.model }

// Reads reports the number of Fetch calls.
func (s *Store) Reads() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads
}

// Writes reports the number of Store calls.
func (s *Store) Writes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

func (s *Store) chargeAccess(bytes int) {
	if !s.charge {
		return
	}
	s.clock.AdvanceOn(s.stripe, s.model.PerAccess+time.Duration(bytes)*s.model.PerByte)
}

// Fetch implements BlockStore. A hole is a charged fetch like any other.
func (s *Store) Fetch(name string, block int64, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if block < 0 {
		return fmt.Errorf("storage: fetch %q block %d: negative block", name, block)
	}
	if len(buf) > s.blockSize {
		return fmt.Errorf("storage: fetch %q block %d: buffer %d exceeds block size %d",
			name, block, len(buf), s.blockSize)
	}
	s.reads++
	s.chargeAccess(len(buf))
	if s.hook != nil {
		if inj := s.hook(OpFetch, name, block); inj != nil {
			return inj.Err
		}
	}
	if f := s.files[name]; f != nil {
		if data, ok := f.blocks[block]; ok {
			copy(buf, data)
			return nil
		}
	}
	clear(buf)
	return nil
}

// Store implements BlockStore.
func (s *Store) Store(name string, block int64, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.storeLocked(name, block, buf)
}

func (s *Store) storeLocked(name string, block int64, buf []byte) error {
	if block < 0 {
		return fmt.Errorf("storage: store %q block %d: negative block", name, block)
	}
	if len(buf) > s.blockSize {
		return fmt.Errorf("storage: store %q block %d: buffer %d exceeds block size %d",
			name, block, len(buf), s.blockSize)
	}
	s.writes++
	s.chargeAccess(len(buf))
	f := s.files[name]
	if f == nil {
		f = &file{blocks: make(map[int64][]byte)}
		s.files[name] = f
	}
	if s.hook != nil {
		if inj := s.hook(OpStore, name, block); inj != nil {
			// A torn write persists the first half of buf and leaves the old
			// suffix in place: the on-media state after a write interrupted
			// mid-block.
			if half := len(buf) / 2; inj.Torn && half > 0 {
				f.write(block, buf[:half], s.blockSize, false)
			}
			return inj.Err
		}
	}
	f.write(block, buf, s.blockSize, true)
	return nil
}

// write puts buf at the start of block b and zero-fills the rest of the
// block if pad, or keeps the old rest if not. A block left all zeros is
// deleted: it is a hole.
func (f *file) write(b int64, buf []byte, blockSize int, pad bool) {
	if b+1 > f.size {
		f.size = b + 1
	}
	if pad && isZero(buf) {
		delete(f.blocks, b)
		return
	}
	// Overwrite an existing block in place: steady-state writeback of a hot
	// working set then allocates nothing.
	data, ok := f.blocks[b]
	if !ok {
		data = make([]byte, blockSize)
		f.blocks[b] = data
	}
	copy(data, buf)
	if pad {
		clear(data[len(buf):])
	} else if isZero(data) {
		delete(f.blocks, b)
	}
}

// Size implements BlockStore.
func (s *Store) Size(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.files[name]; f != nil {
		return f.size
	}
	return 0
}

// Preload writes a file's contents without charging latency or counting
// the writes it makes — experiment setup. With a nil fill every block is a
// hole, so the store records only the file's size.
func (s *Store) Preload(name string, blocks int64, fill func(block int64, buf []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	savedCharge, savedWrites := s.charge, s.writes
	s.charge = false
	buf := make([]byte, s.blockSize)
	for b := int64(0); b < blocks; b++ {
		if fill != nil {
			fill(b, buf)
		}
		if err := s.storeLocked(name, b, buf); err != nil {
			panic(err) // preload arguments are programmer-controlled
		}
	}
	s.charge, s.writes = savedCharge, savedWrites
}

// FailingStore wraps a BlockStore and injects failures: after FailAfter
// successful operations, every subsequent operation matching the enabled
// kinds returns ErrInjected. It exists for fault-injection tests — a
// manager must surface backing-store errors without corrupting frame
// accounting.
type FailingStore struct {
	Inner BlockStore
	// FailAfter is the number of operations that succeed first.
	FailAfter int64
	// FailReads and FailWrites select which operations fail.
	FailReads, FailWrites bool
	// FailOnce makes the store recover after the first injected failure:
	// both failure arms are disabled once an error has been returned, so
	// the next operation succeeds (a transient device hiccup).
	FailOnce bool
	// TornWrites makes a failing Store persist the first half of the
	// buffer before the error surfaces (a write interrupted mid-block);
	// the injected error additionally wraps ErrTornWrite.
	TornWrites bool
	// Transient marks injected errors retryable: they additionally wrap
	// ErrTransient, so manager retry-with-backoff paths engage.
	Transient bool
	ops       int64
	injected  int64
}

// ErrInjected is the failure FailingStore and the fault plane inject.
var ErrInjected = fmt.Errorf("storage: injected failure")

// ErrTransient marks a storage failure as retryable: the device or server
// hiccuped, and repeating the operation may succeed. Managers bound a
// retry-with-backoff loop on it; errors not wrapping ErrTransient are
// permanent and must propagate.
var ErrTransient = fmt.Errorf("storage: transient failure")

// ErrTornWrite marks a store failure that persisted a partial block: the
// block now holds the new prefix and the old suffix.
var ErrTornWrite = fmt.Errorf("storage: torn write")

// Injected reports how many failures have been injected.
func (f *FailingStore) Injected() int64 { return f.injected }

// inject builds the error for one injected failure and applies the
// FailOnce recovery rule.
func (f *FailingStore) inject(err error) error {
	f.injected++
	if f.FailOnce {
		f.FailReads, f.FailWrites = false, false
	}
	if f.Transient {
		err = fmt.Errorf("%w: %w", ErrTransient, err)
	}
	return err
}

// Fetch implements BlockStore.
func (f *FailingStore) Fetch(name string, block int64, buf []byte) error {
	f.ops++
	if f.FailReads && f.ops > f.FailAfter {
		return f.inject(fmt.Errorf("%w (fetch %q block %d)", ErrInjected, name, block))
	}
	return f.Inner.Fetch(name, block, buf)
}

// Store implements BlockStore.
func (f *FailingStore) Store(name string, block int64, buf []byte) error {
	f.ops++
	if f.FailWrites && f.ops > f.FailAfter {
		err := fmt.Errorf("%w (store %q block %d)", ErrInjected, name, block)
		if f.TornWrites {
			if half := len(buf) / 2; half > 0 {
				// The prefix reaches the media; the torn suffix does not.
				// (Inner.Store zero-fills past the short buffer, which is
				// the post-crash state of an unwritten tail sector.)
				if werr := f.Inner.Store(name, block, buf[:half]); werr != nil {
					return werr
				}
			}
			err = fmt.Errorf("%w: %w", ErrTornWrite, err)
		}
		return f.inject(err)
	}
	return f.Inner.Store(name, block, buf)
}

// Size implements BlockStore.
func (f *FailingStore) Size(name string) int64 { return f.Inner.Size(name) }

// BlockSize implements BlockStore.
func (f *FailingStore) BlockSize() int { return f.Inner.BlockSize() }

// Reads implements BlockStore.
func (f *FailingStore) Reads() int64 { return f.Inner.Reads() }

// Writes implements BlockStore.
func (f *FailingStore) Writes() int64 { return f.Inner.Writes() }
