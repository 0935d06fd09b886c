package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"epcm/internal/kernel"
	"epcm/internal/manager"
	"epcm/internal/phys"
	"epcm/internal/spcm"
)

// Spans are recorded from outside the program, at the interface seams the
// system already exposes: the benchmark's own call into kernel.Access, and
// wrappers around kernel.Manager, manager.FrameSource, manager.Backing and
// manager.Policy. A layer's self time is its span's duration minus the part
// its child spans cover, so the self times of one op telescope to the
// duration of its root span.

type spanName uint8

const (
	spanAccess    spanName = iota // kernel.Access, the root span of one op
	spanDelete                    // kernel.DeleteSegment (teardown)
	spanHandle                    // Manager.HandleFault / HandleFaultVector
	spanLaneIdle                  // Manager.LaneIdle
	spanVictim                    // Policy.Victim
	spanRequest                   // FrameSource.RequestFrames / RequestContiguous*
	spanReturn                    // FrameSource.ReturnFrames (teardown)
	spanFill                      // Backing.Fill
	spanWriteback                 // Backing.Writeback
	numSpanNames
)

var spanLabels = [numSpanNames]string{
	"kernel.access", "kernel.delete", "manager.handle", "manager.lane_idle",
	"manager.policy", "spcm.request", "spcm.return", "storage.fill", "storage.writeback",
}

// span is one recorded interval. parent indexes the track's span list (-1
// for a root); op numbers the kernel.Access the span ran under.
type span struct {
	name       spanName
	start, end int64 // ns since the tracer's base
	parent     int32
	op         int64
}

// spanAgg accumulates every span of one name on one track.
type spanAgg struct {
	count int64
	total int64 // ns, inclusive
	self  int64 // ns, minus direct children; only spans under a kernel.access root
	units int64 // frames granted / returned, pages deleted
}

// maxKeptSpans bounds the spans a keeping tracer stores per track for the
// Chrome-trace file; the aggregates cover every span regardless.
const maxKeptSpans = 1 << 14

type openSpan struct {
	name     spanName
	start    int64
	children int64
	index    int32 // into track.spans, -1 when not kept
}

// track is the span recorder of one driver goroutine and the manager it
// faults against. Only that goroutine touches it: with one driver per
// manager the lane's work always runs inline on the faulting goroutine.
type track struct {
	base  time.Time
	id    int
	spans []span // stays within its capacity: 0 unless the tracer keeps spans
	stack []openSpan
	agg   [numSpanNames]spanAgg
	op    int64
}

func (t *track) now() int64 { return int64(time.Since(t.base)) }

func (t *track) begin(name spanName) {
	if name == spanAccess {
		t.op++
	}
	idx := int32(-1)
	if len(t.spans) < cap(t.spans) {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].index
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, parent: parent, op: t.op})
	}
	t.stack = append(t.stack, openSpan{name: name, index: idx, start: t.now()})
}

func (t *track) end(units int64) {
	end := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - o.start
	a := &t.agg[o.name]
	a.count++
	a.total += dur
	a.units += units
	// Teardown runs the same seams outside any op (a lane going idle after
	// a deletion notice prefetches frames); only time under an access root
	// belongs to the per-op budget.
	if o.name == spanAccess || (n > 0 && t.stack[0].name == spanAccess) {
		a.self += dur - o.children
	}
	if n > 0 {
		t.stack[n-1].children += dur
	}
	if o.index >= 0 {
		t.spans[o.index].start, t.spans[o.index].end = o.start, end
	}
}

// tracer owns the tracks of one traced system. Only a keeping tracer stores
// individual spans; the others just aggregate, so they add nothing to the
// heap the next cell measures.
type tracer struct {
	base   time.Time
	keep   bool
	tracks []*track
}

func newTracer(keep bool) *tracer { return &tracer{base: time.Now(), keep: keep} }

func (tr *tracer) newTrack() *track {
	t := &track{base: tr.base, id: len(tr.tracks)}
	if tr.keep {
		t.spans = make([]span, 0, maxKeptSpans)
	}
	tr.tracks = append(tr.tracks, t)
	return t
}

// reset drops everything recorded so far (boot and the warm-up epoch).
func (tr *tracer) reset() {
	for _, t := range tr.tracks {
		t.spans = t.spans[:0]
		t.agg = [numSpanNames]spanAgg{}
		t.op = 0
	}
}

// sum adds up one span name across tracks.
func (tr *tracer) sum(name spanName) spanAgg {
	var s spanAgg
	for _, t := range tr.tracks {
		a := t.agg[name]
		s.count += a.count
		s.total += a.total
		s.self += a.self
		s.units += a.units
	}
	return s
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans each workload's first traced cell kept as
// one Chrome-trace JSON array; a workload is a process, a track a thread.
func writeChromeTrace(w io.Writer, workloads []WorkloadResult) error {
	events := []chromeEvent{}
	for pid, wl := range workloads {
		if len(wl.tracers) == 0 {
			continue
		}
		for _, t := range wl.tracers[0].tracks {
			for i, s := range t.spans {
				events = append(events, chromeEvent{
					Name: spanLabels[s.name], Cat: wl.Name, Ph: "X",
					TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
					PID: pid + 1, TID: t.id,
					Args: map[string]any{"id": i, "parent": s.parent, "op": s.op},
				})
			}
		}
	}
	return json.NewEncoder(w).Encode(events)
}

func writeChromeTraceFile(path string, workloads []WorkloadResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, workloads); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// ---- wrappers ----

// tracedManager wraps a Generic at the kernel.Manager seam, forwarding the
// optional lane and vector extensions the concurrent scheduler looks for.
type tracedManager struct {
	g *manager.Generic
	t *track
}

var (
	_ kernel.Manager        = (*tracedManager)(nil)
	_ kernel.LaneMaintainer = (*tracedManager)(nil)
	_ kernel.VectorHandler  = (*tracedManager)(nil)
)

func (m *tracedManager) ManagerName() string           { return m.g.ManagerName() }
func (m *tracedManager) Delivery() kernel.DeliveryMode { return m.g.Delivery() }
func (m *tracedManager) SegmentDeleted(s *kernel.Segment) {
	m.g.SegmentDeleted(s)
}

func (m *tracedManager) HandleFault(f kernel.Fault) error {
	m.t.begin(spanHandle)
	err := m.g.HandleFault(f)
	m.t.end(1)
	return err
}

func (m *tracedManager) HandleFaultVector(fs []kernel.Fault, errs []error) {
	m.t.begin(spanHandle)
	m.g.HandleFaultVector(fs, errs)
	m.t.end(int64(len(fs)))
}

func (m *tracedManager) LaneIdle() {
	m.t.begin(spanLaneIdle)
	m.g.LaneIdle()
	m.t.end(0)
}

// tracedSPCM wraps the SPCM at the manager.FrameSource seam, forwarding the
// optional manager.ContiguousRunSource and manager.IOAccountant extensions
// managers look for. (replace's fixed pool is part of package manager and
// stays inside the manager's self time, so spcm.* reads 0 there.)
type tracedSPCM struct {
	pool *spcm.SPCM
	t    *track
}

var (
	_ manager.ContiguousRunSource = (*tracedSPCM)(nil)
	_ manager.IOAccountant        = (*tracedSPCM)(nil)
)

func (s *tracedSPCM) RequestFrames(g *manager.Generic, n int, c phys.Range) (int, error) {
	s.t.begin(spanRequest)
	got, err := s.pool.RequestFrames(g, n, c)
	s.t.end(int64(got))
	return got, err
}

func (s *tracedSPCM) ReturnFrames(g *manager.Generic, slots []int64) error {
	s.t.begin(spanReturn)
	err := s.pool.ReturnFrames(g, slots)
	s.t.end(int64(len(slots)))
	return err
}

func (s *tracedSPCM) RequestContiguous(g *manager.Generic, n int) (int, error) {
	s.t.begin(spanRequest)
	got, err := s.pool.RequestContiguous(g, n)
	s.t.end(int64(got))
	return got, err
}

func (s *tracedSPCM) RequestContiguousRuns(g *manager.Generic, n, count int) (int, error) {
	s.t.begin(spanRequest)
	runs, err := s.pool.RequestContiguousRuns(g, n, count)
	s.t.end(int64(runs * n))
	return runs, err
}

func (s *tracedSPCM) ChargeIO(g *manager.Generic, pages int64) { s.pool.ChargeIO(g, pages) }

type tracedBacking struct {
	b manager.Backing
	t *track
}

func (b *tracedBacking) Fill(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	b.t.begin(spanFill)
	err := b.b.Fill(seg, page, frame)
	b.t.end(1)
	return err
}

func (b *tracedBacking) Writeback(seg *kernel.Segment, page int64, frame *phys.Frame) error {
	b.t.begin(spanWriteback)
	err := b.b.Writeback(seg, page, frame)
	b.t.end(1)
	return err
}

// tracedPolicy times Victim, the one Policy call allowed to issue charged
// kernel operations. Insert, Touch and Remove are bookkeeping hooks of a few
// nanoseconds each; timing them would cost more than they do, so they stay
// in the manager's self time.
type tracedPolicy struct {
	p manager.Policy
	t *track
}

func (p *tracedPolicy) PolicyName() string                             { return p.p.PolicyName() }
func (p *tracedPolicy) Insert(h manager.PolicyHost, id manager.PageID) { p.p.Insert(h, id) }
func (p *tracedPolicy) Touch(h manager.PolicyHost, id manager.PageID)  { p.p.Touch(h, id) }
func (p *tracedPolicy) Remove(h manager.PolicyHost, id manager.PageID) { p.p.Remove(h, id) }
func (p *tracedPolicy) Victim(h manager.PolicyHost) (manager.PageID, kernel.PageFlags, bool, error) {
	p.t.begin(spanVictim)
	id, flags, ok, err := p.p.Victim(h)
	p.t.end(1)
	return id, flags, ok, err
}
