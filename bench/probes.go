package main

import (
	"fmt"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/plane"
	"epcm/internal/sim"
	"epcm/internal/spcm"
	"epcm/internal/storage"
	"epcm/internal/uio"
	"epcm/internal/ultrix"
)

// A probe times one public function of one layer on warm state. It does not
// depend on the workload, so every workload reports the same probe values;
// they are the per-layer unit costs the span budget is read against.

// probe times reps batches of batch calls and returns the median ns/call.
func probe(sz sizes, fn func(i int)) float64 {
	fn(0) // warm
	samples := make([]float64, sz.ProbeReps)
	for r := range samples {
		start := time.Now()
		for i := 0; i < sz.ProbeBatch; i++ {
			fn(i)
		}
		samples[r] = float64(time.Since(start).Nanoseconds()) / float64(sz.ProbeBatch)
	}
	return quantile(samples, 0.5)
}

// probeKernel is a small booted system for the kernel and uio probes.
type probeKernel struct {
	k   *kernel.Kernel
	seg *kernel.Segment
}

const (
	probePages = 128
	probeFile  = "probe-file"
)

// bootProbeKernel boots a kernel with one manager and probePages resident
// pages, file-backed when fileBacked is set (the uio probes) and anonymous
// otherwise.
func bootProbeKernel(fileBacked bool) (*probeKernel, error) {
	p := &probeKernel{}
	clock := new(sim.Clock)
	mem := phys.NewMemory(phys.Config{FrameSize: frameSize, TotalBytes: 8 << 20, StoreData: true})
	p.k = kernel.New(mem, clock, sim.DECstation5000(), kernel.Config{})
	pool := spcm.New(p.k, spcm.DefaultPolicy())
	cfg := manager.Config{Name: "probe", Source: pool}
	var files *manager.FileBacking
	if fileBacked {
		files = manager.NewFileBacking(storage.NewStore(clock, storage.NetworkServer(), frameSize))
		cfg.Backing = files
	}
	g, err := manager.NewGeneric(p.k, cfg)
	if err != nil {
		return nil, err
	}
	pool.Register(g, "probe", 1e9)
	if p.seg, err = g.CreateManagedSegment("probe-data"); err != nil {
		return nil, err
	}
	if fileBacked {
		files.BindFile(p.seg, probeFile)
	}
	for page := int64(0); page < probePages; page++ {
		if err := p.k.Access(p.seg, page, kernel.Write); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runProbes runs every P metric.
func runProbes(sz sizes) (metrics, error) {
	m := metrics{}
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// kernel: hits and the Table-3 calls, on resident pages.
	pk, err := bootProbeKernel(false)
	if err != nil {
		return nil, fmt.Errorf("probe kernel: %w", err)
	}
	defer pk.k.Scheduler().Stop()
	k := pk.k
	m.set("kernel.resident_hit_ns", probe(sz, func(i int) {
		fail(k.Access(pk.seg, int64(i%probePages), kernel.Read))
	}))
	m.set("kernel.modify_flags_ns", probe(sz, func(i int) {
		fail(k.ModifyPageFlags(kernel.AppCred, pk.seg, int64(i%probePages), 1, kernel.FlagRead, 0))
	}))
	m.set("kernel.get_attr_ns", probe(sz, func(i int) {
		_, err := k.GetPageAttribute(pk.seg, int64(i%probePages))
		fail(err)
	}))
	// Migration: the resident pages bounce between two unmanaged segments.
	a, err := k.CreateSegment("probe-a", 1)
	fail(err)
	b, err := k.CreateSegment("probe-b", 1)
	fail(err)
	if firstErr != nil {
		return nil, firstErr
	}
	fail(k.MigratePages(kernel.AppCred, pk.seg, a, 0, 0, 64, kernel.FlagRW, 0))
	src, dst := a, b
	m.set("kernel.migrate1_ns", probe(sz, func(int) {
		fail(k.MigratePages(kernel.AppCred, src, dst, 0, 0, 1, kernel.FlagRW, 0))
		src, dst = dst, src
	}))
	if src == b { // page 0 back with the other 63
		fail(k.MigratePages(kernel.AppCred, b, a, 0, 0, 1, kernel.FlagRW, 0))
		src, dst = a, b
	}
	batch := []kernel.PageRange{{Page: 0, To: 0, Pages: 64}}
	fewer := sz
	fewer.ProbeBatch = sz.ProbeBatch/64 + 1
	m.set("kernel.migrate64_ns_per_page", probe(fewer, func(int) {
		fail(k.MigratePagesBatch(kernel.AppCred, src, dst, batch, kernel.FlagRW, 0))
		src, dst = dst, src
	})/64)

	// plane: one message through the concurrent ring and the serial mailbox.
	ring := plane.NewRing[int](64)
	m.set("plane.ring_ns", probe(sz, func(i int) {
		ring.Put(0, i)
		ring.Pop()
	}))
	var group plane.Group[int]
	box := group.NewMailbox()
	m.set("plane.mailbox_ns", probe(sz, func(i int) {
		group.Enqueue(box, time.Duration(i), i)
		group.PopOldest()
	}))

	// phys: one frame, one order-4 run, one lane-cache frame.
	pfns := make([]int64, 4096)
	for i := range pfns {
		pfns[i] = int64(i)
	}
	free := phys.NewFreeList(pfns)
	m.set("phys.alloc_ns", probe(sz, func(int) {
		free.Push(free.Pop(1, nil))
	}))
	var run []int64
	m.set("phys.alloc_run_ns", probe(sz, func(int) {
		run, _ = free.AllocRunAppend(run[:0], extentOrder, nil)
		free.Push(run)
	}))
	cache := phys.NewFrameCache(free, 0, 0, 0)
	var one []int64
	m.set("phys.framecache_pop_ns", probe(sz, func(int) {
		one = cache.Pop(one[:0], 1)
		cache.Push(one)
	}))

	// storage: one 4 KB block each way.
	var sclock sim.Clock
	store := storage.NewStore(&sclock, storage.NetworkServer(), frameSize)
	store.Preload("probe", 64, nil)
	buf := make([]byte, frameSize)
	m.set("storage.read_ns", probe(sz, func(i int) { fail(store.Fetch("probe", int64(i%64), buf)) }))
	m.set("storage.write_ns", probe(sz, func(i int) { fail(store.Store("probe", int64(i%64), buf)) }))

	// sim: schedule + dispatch one event, serial and on two shards.
	m.set("sim.event_ns", probeEvents(sz, 1))
	m.set("sim.event_sharded_ns", probeEvents(sz, 2))

	// uio / ultrix: the Table 1 primitives on a cached block.
	fk, err := bootProbeKernel(true)
	if err != nil {
		return nil, fmt.Errorf("probe uio: %w", err)
	}
	defer fk.k.Scheduler().Stop()
	file := uio.Open(fk.k, fk.seg, probeFile, probePages)
	m.set("uio.read4k_ns", probe(sz, func(i int) { fail(file.ReadBlock(int64(i%probePages), buf)) }))
	m.set("uio.write4k_ns", probe(sz, func(i int) { fail(file.WriteBlock(int64(i%probePages), buf)) }))

	var uclock sim.Clock
	ustore := storage.NewStore(&uclock, storage.LocalDisk(), frameSize)
	ux := ultrix.New(&uclock, sim.DECstation5000(), ustore, 1<<20)
	region := ux.NewRegion("probe-heap")
	next := int64(0)
	m.set("ultrix.fault_ns", probe(sz, func(int) {
		ux.MinimalFault(region, next)
		next++
	}))
	return m, firstErr
}

// probeEvents returns ns per event for scheduling a batch of events across
// the given number of shards and draining them.
func probeEvents(sz sizes, shards int) float64 {
	samples := make([]float64, sz.ProbeReps)
	nop := func() {}
	for r := range samples {
		var clock sim.Clock
		env := sim.NewSerialEnv(&clock)
		if shards > 1 {
			env = sim.NewShardedEnv(&clock, shards, 0)
		}
		start := time.Now()
		for i := 0; i < sz.ProbeBatch; i++ {
			env.Shard(i%shards).At(time.Duration(i+1)*time.Microsecond, nop)
		}
		env.Run()
		samples[r] = float64(time.Since(start).Nanoseconds()) / float64(sz.ProbeBatch)
	}
	return quantile(samples, 0.5)
}
