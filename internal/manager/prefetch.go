package manager

import (
	"time"

	"epcm/internal/kernel"
	"epcm/internal/phys"
	"epcm/internal/sim"
	"epcm/internal/storage"
)

// AsyncDevice models a storage device whose service overlaps application
// computation. A request submitted at time t completes at
// max(t, deviceFree) + latency; the device is then busy until that moment.
// The application only blocks when it needs a request's data before the
// completion time — which is exactly the overlap the paper's §1 example
// exploits ("there is ample time to overlap prefetching and writeback").
type AsyncDevice struct {
	clock  *sim.Clock
	model  storage.LatencyModel
	freeAt time.Duration
	// counters
	requests int64
}

// NewAsyncDevice creates a device over the shared virtual clock.
func NewAsyncDevice(clock *sim.Clock, model storage.LatencyModel) *AsyncDevice {
	return &AsyncDevice{clock: clock, model: model}
}

// Submit enqueues a transfer of the given size and returns its completion
// time. It never blocks the caller.
func (d *AsyncDevice) Submit(bytes int) time.Duration {
	start := d.clock.Now()
	if d.freeAt > start {
		start = d.freeAt
	}
	d.freeAt = start + d.model.PerAccess + time.Duration(bytes)*d.model.PerByte
	d.requests++
	return d.freeAt
}

// WaitUntil blocks the application until the given completion time (no-op
// if it already passed).
func (d *AsyncDevice) WaitUntil(t time.Duration) {
	if t > d.clock.Now() {
		d.clock.AdvanceTo(t)
	}
}

// Requests reports the number of submitted transfers.
func (d *AsyncDevice) Requests() int64 { return d.requests }

// Prefetch is an application-specific segment manager specialized from
// Generic: it read-ahead-fetches the next pages of a sequential working set
// so disk latency overlaps computation (§1's MP3D example, §2.2's matrix
// prefetch example), and it writes dirty pages back asynchronously.
type Prefetch struct {
	*Generic
	device  *AsyncDevice
	store   *storage.Store
	backing *FileBacking
	depth   int
	pending map[resKey]time.Duration
	// stats
	prefetchHits    int64
	demandFetches   int64
	asyncWritebacks int64
}

// NewPrefetch builds a prefetching manager. depth is the read-ahead window
// in pages; store supplies the data (its own latency charging is bypassed —
// timing comes from the AsyncDevice so transfers can overlap execution).
func NewPrefetch(k *kernel.Kernel, cfg Config, device *AsyncDevice, store *storage.Store, depth int) (*Prefetch, error) {
	p := &Prefetch{
		device:  device,
		store:   store,
		backing: NewFileBacking(store),
		depth:   depth,
		pending: make(map[resKey]time.Duration),
	}
	if cfg.Name == "" {
		cfg.Name = "prefetch-manager"
	}
	cfg.Backing = asyncBacking{p}
	g, err := NewGeneric(k, cfg)
	if err != nil {
		return nil, err
	}
	p.Generic = g
	return p, nil
}

// BindFile associates a managed segment with its backing file.
func (p *Prefetch) BindFile(seg *kernel.Segment, name string) { p.backing.BindFile(seg, name) }

// PrefetchHits reports faults served by an already-submitted prefetch.
func (p *Prefetch) PrefetchHits() int64 { return p.prefetchHits }

// DemandFetches reports faults that had to fetch synchronously.
func (p *Prefetch) DemandFetches() int64 { return p.demandFetches }

// fetchSilently copies page contents from the store without charging its
// synchronous latency (the AsyncDevice carries the timing).
func (p *Prefetch) fetchSilently(seg *kernel.Segment, page int64, frame *phys.Frame) {
	name, ok := p.backing.FileOf(seg)
	if !ok {
		return
	}
	buf := frame.Data()
	if buf == nil {
		return
	}
	p.store.SetCharging(false)
	defer p.store.SetCharging(true)
	// Fetch errors only occur for invalid arguments here; contents of
	// unwritten blocks read as zeros.
	_ = p.store.Fetch(name, page, buf)
}

// asyncBacking is the prefetching manager's Backing: fills come through
// the read-ahead window and writebacks go out on the device timeline, so
// neither blocks the application longer than the device makes it.
type asyncBacking struct{ p *Prefetch }

// Fill is the specialized page-fill routine: wait for a pending prefetch
// (or issue a demand fetch), copy the data in silently (the timing came
// from the device), then extend the read-ahead window.
func (a asyncBacking) Fill(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	p := a.p
	key := resKey{seg: seg, page: page}
	if done, ok := p.pending[key]; ok {
		delete(p.pending, key)
		p.device.WaitUntil(done)
		p.prefetchHits++
	} else {
		done := p.device.Submit(seg.PageSize())
		p.device.WaitUntil(done)
		p.demandFetches++
	}
	p.fetchSilently(seg, page, frame)
	// Read ahead.
	for i := int64(1); i <= int64(p.depth); i++ {
		q := page + i
		qk := resKey{seg: seg, page: q}
		if _, ok := p.pending[qk]; ok || seg.HasPage(q) {
			continue
		}
		if name, ok := p.backing.FileOf(seg); !ok || q >= p.store.Size(name) {
			break
		}
		p.pending[qk] = p.device.Submit(seg.PageSize())
	}
	return nil
}

// Writeback copies the data out now and charges the device asynchronously.
func (a asyncBacking) Writeback(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	name, ok := a.p.backing.FileOf(seg)
	if !ok {
		return nil
	}
	a.p.store.SetCharging(false)
	err := frame.WithData(func(buf []byte) error { return a.p.store.Store(name, page, buf) })
	a.p.store.SetCharging(true)
	if err != nil {
		return err
	}
	a.p.device.Submit(seg.PageSize())
	a.p.asyncWritebacks++
	return nil
}
