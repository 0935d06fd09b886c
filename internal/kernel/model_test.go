package kernel

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"epcm/internal/phys"
	"epcm/internal/sim"
)

// refKernel is the whole-kernel reference model: the paper's §2.1 calls
// over flat maps. It keeps what an application or manager can observe —
// which frame backs each page and with which flags, each segment's manager,
// its bindings (copy-on-write included) and Table 3's call counts — and
// nothing the kernel keeps to go fast: no TLB, hash table, extents,
// batching or locks. Every page is one frame. FuzzKernelOps runs it beside
// a serial kernel and requires the same error, state and counts after
// every step.
type refKernel struct {
	segs       []*refSeg // a script's segment handles; 0 is boot, 1 the donor
	stats      Stats     // the call counts modelCounts reads
	maxRetries int
}

type refSeg struct {
	pages      map[int64]refPage
	bindings   []refBinding
	managed    bool // the one test manager (opsManager) manages it
	restricted bool
	deleted    bool
}

type refPage struct {
	pfn   phys.PFN
	flags PageFlags
}

type refBinding struct {
	start, pages, targetStart int64
	target                    int
	cow                       bool
}

// errDonorEmpty is the test manager's answer to a fault it has no frame for.
var errDonorEmpty = errors.New("donor segment is empty")

// errBindingChain stands for resolve's untyped too-deep-chain error.
var errBindingChain = errors.New("binding chain too deep")

func newRefKernel(frames int, maxRetries int) *refKernel {
	boot := &refSeg{pages: make(map[int64]refPage, frames), restricted: true}
	for pfn := 0; pfn < frames; pfn++ {
		boot.pages[int64(pfn)] = refPage{pfn: phys.PFN(pfn)}
	}
	return &refKernel{segs: []*refSeg{boot}, maxRetries: maxRetries}
}

func (m *refKernel) create(framesPerPage int, managed bool) error {
	if framesPerPage != 1 {
		return ErrBadRange
	}
	m.segs = append(m.segs, &refSeg{pages: make(map[int64]refPage), managed: managed})
	return nil
}

func (m *refKernel) bind(cred Cred, s int, start, pages int64, target int, targetStart int64, cow bool) error {
	seg := m.segs[s]
	if seg.deleted || m.segs[target].deleted {
		return ErrNoSuchSegment
	}
	if (seg.restricted || m.segs[target].restricted) && !cred.Privileged {
		return ErrNotPrivileged
	}
	if pages <= 0 || start < 0 || targetStart < 0 {
		return ErrBadRange
	}
	for _, b := range seg.bindings {
		if start < b.start+b.pages && b.start < start+pages {
			return ErrOverlap
		}
	}
	seg.bindings = append(seg.bindings, refBinding{start, pages, targetStart, target, cow})
	return nil
}

// refResolved is where a reference lands after following bindings, and the
// first copy-on-write binding it crossed.
type refResolved struct {
	seg, cowSeg   int
	page, cowPage int64
	cow           bool
}

func (m *refKernel) resolve(s int, page int64) (refResolved, error) {
	r := refResolved{seg: s, page: page}
	for depth := 0; ; depth++ {
		if depth > 16 {
			return r, errBindingChain
		}
		seg := m.segs[r.seg]
		var b *refBinding
		if _, ok := seg.pages[r.page]; !ok {
			for i := range seg.bindings {
				if c := &seg.bindings[i]; r.page >= c.start && r.page < c.start+c.pages {
					b = c
				}
			}
		}
		if seg.deleted && (depth == 0 || b == nil) {
			return r, ErrNoSuchSegment
		}
		if b == nil {
			return r, nil
		}
		if b.cow && !r.cow {
			r.cow, r.cowSeg, r.cowPage = true, r.seg, r.page
		}
		r.seg, r.page = b.target, b.targetStart+r.page-b.start
	}
}

func accessFlag(write bool) PageFlags {
	if write {
		return FlagWrite
	}
	return FlagRead
}

func (m *refKernel) access(s int, page int64, write bool) error {
	if page < 0 {
		return ErrBadRange
	}
	for attempt := 0; attempt <= m.maxRetries; attempt++ {
		r, err := m.resolve(s, page)
		if err != nil {
			return err
		}
		if attempt == 0 {
			m.stats.Accesses++
		}
		seg := m.segs[r.seg]
		p, ok := seg.pages[r.page]
		switch {
		case !ok:
			err = m.fault(r.seg, r.page, write, FaultMissing)
		case write && r.cow:
			if err = m.fault(r.cowSeg, r.cowPage, write, FaultCopyOnWrite); err == nil {
				front := m.segs[r.cowSeg]
				if cp, ok := front.pages[r.cowPage]; ok {
					cp.flags |= FlagDirty
					front.pages[r.cowPage] = cp
				}
			}
		case p.flags&accessFlag(write) == 0:
			err = m.fault(r.seg, r.page, write, FaultProtection)
		default:
			p.flags |= FlagReferenced
			if write {
				p.flags |= FlagDirty
			}
			seg.pages[r.page] = p
			return nil
		}
		if err != nil {
			return err
		}
	}
	return ErrFaultLoop
}

// fault delivers one fault to the test manager: a missing or copy-on-write
// page gets the donor's lowest page, read-write; a protection fault gets
// the access it asked for.
func (m *refKernel) fault(s int, page int64, write bool, kind FaultKind) error {
	if !m.segs[s].managed {
		return ErrNoManager
	}
	m.stats.ManagerCalls++
	m.stats.Faults++
	var err error
	switch kind {
	case FaultMissing:
		m.stats.MissingFaults++
	case FaultProtection:
		m.stats.ProtFaults++
	case FaultCopyOnWrite:
		m.stats.COWFaults++
	}
	if kind == FaultProtection {
		err = m.modify(AppCred, s, []PageRange{{Page: page, Pages: 1}}, accessFlag(write), 0)
	} else if donor := m.segs[1].pages; len(donor) == 0 {
		err = errDonorEmpty
	} else {
		lowest := int64(math.MaxInt64)
		for p := range donor {
			lowest = min(lowest, p)
		}
		err = m.migrate(AppCred, 1, s, []PageRange{{Page: lowest, To: page, Pages: 1}}, FlagRW, 0)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrManagerFailed, err)
	}
	return nil
}

func (m *refKernel) migrate(cred Cred, s, d int, ranges []PageRange, set, clear PageFlags) error {
	if len(ranges) == 0 {
		return nil
	}
	m.stats.MigrateCalls++
	src, dst := m.segs[s], m.segs[d]
	if src.deleted || dst.deleted {
		return ErrNoSuchSegment
	}
	if (src.restricted || dst.restricted) && !cred.Privileged {
		return ErrNotPrivileged
	}
	for _, r := range ranges {
		if r.Pages <= 0 || r.Page < 0 || r.To < 0 {
			return ErrBadRange
		}
	}
	for _, r := range ranges {
		for i := int64(0); i < r.Pages; i++ {
			if _, ok := src.pages[r.Page+i]; !ok {
				return ErrPageNotPresent
			}
			if _, ok := dst.pages[r.To+i]; ok {
				return ErrPageBusy
			}
		}
	}
	// Two ranges of one batch may not name one source page or land on one
	// destination page: the page-by-page walk of reference_test.go.
	if err := refCheckDisjoint(&Segment{}, &Segment{}, ranges); err != nil {
		return err
	}
	for _, r := range ranges {
		for i := int64(0); i < r.Pages; i++ {
			p := src.pages[r.Page+i]
			delete(src.pages, r.Page+i)
			p.flags = (p.flags | set) &^ clear
			dst.pages[r.To+i] = p
			m.stats.MigratedPages++
		}
	}
	return nil
}

func (m *refKernel) modify(cred Cred, s int, ranges []PageRange, set, clear PageFlags) error {
	if len(ranges) == 0 {
		return nil
	}
	m.stats.ModifyCalls++
	seg := m.segs[s]
	if seg.deleted {
		return ErrNoSuchSegment
	}
	if seg.restricted && !cred.Privileged {
		return ErrNotPrivileged
	}
	for _, r := range ranges {
		if r.Pages <= 0 || r.Page < 0 {
			return ErrBadRange
		}
	}
	for _, r := range ranges {
		for i := int64(0); i < r.Pages; i++ {
			if _, ok := seg.pages[r.Page+i]; !ok {
				return ErrPageNotPresent
			}
		}
	}
	for _, r := range ranges {
		for i := int64(0); i < r.Pages; i++ {
			p := seg.pages[r.Page+i]
			p.flags = (p.flags | set) &^ clear
			seg.pages[r.Page+i] = p
		}
	}
	return nil
}

// attributes reads the listed pages; an empty list is no call.
func (m *refKernel) attributes(s int, pages []int64) ([]PageAttribute, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	m.stats.GetAttrCalls++
	seg := m.segs[s]
	if seg.deleted {
		return nil, ErrNoSuchSegment
	}
	var out []PageAttribute
	for _, p := range pages {
		if p < 0 {
			return nil, ErrBadRange
		}
		a := PageAttribute{Page: p, PFN: phys.NoFrame}
		if e, ok := seg.pages[p]; ok {
			a.Present, a.Flags, a.PFN = true, e.flags, e.pfn
		}
		out = append(out, a)
	}
	return out, nil
}

// remove deletes a segment. The test manager salvages nothing, so every
// frame the segment holds returns to the boot segment at its own PFN.
func (m *refKernel) remove(cred Cred, s int) error {
	seg := m.segs[s]
	if seg.restricted && !cred.Privileged {
		return ErrNotPrivileged
	}
	if seg.deleted {
		return ErrNoSuchSegment
	}
	if seg.managed {
		m.stats.ManagerCalls++
	}
	for _, p := range seg.pages {
		m.segs[0].pages[int64(p.pfn)] = refPage{pfn: p.pfn}
	}
	clear(seg.pages)
	seg.deleted = true
	return nil
}

// opsManager is the kernel side of refKernel.fault.
type opsManager struct {
	k     *Kernel
	donor *Segment
}

func (m *opsManager) ManagerName() string       { return "ops" }
func (m *opsManager) Delivery() DeliveryMode    { return DeliverSameProcess }
func (m *opsManager) SegmentDeleted(s *Segment) {}

func (m *opsManager) HandleFault(f Fault) error {
	if f.Kind == FaultProtection {
		return m.k.ModifyPageFlags(AppCred, f.Seg, f.Page, 1, accessFlag(f.Access == Write), 0)
	}
	pages := m.donor.Pages()
	if len(pages) == 0 {
		return errDonorEmpty
	}
	return m.k.MigratePages(AppCred, m.donor, f.Seg, pages[0], f.Page, 1, FlagRW, 0)
}

// modelCounts keeps the counts refKernel models.
func modelCounts(s Stats) Stats {
	return Stats{Accesses: s.Accesses, Faults: s.Faults, MissingFaults: s.MissingFaults,
		ProtFaults: s.ProtFaults, COWFaults: s.COWFaults, ManagerCalls: s.ManagerCalls,
		MigrateCalls: s.MigrateCalls, MigratedPages: s.MigratedPages,
		ModifyCalls: s.ModifyCalls, GetAttrCalls: s.GetAttrCalls}
}

var errClasses = []error{ErrManagerFailed, ErrNoSuchSegment, ErrNotPrivileged, ErrBadRange,
	ErrPageNotPresent, ErrPageBusy, ErrOverlap, ErrNoManager, ErrFaultLoop, errDonorEmpty}

// errClass names every sentinel err wraps: errors compare by what a caller
// can match with errors.Is, not by their text.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	var names []string
	for _, c := range errClasses {
		if errors.Is(err, c) {
			names = append(names, c.Error())
		}
	}
	if names == nil {
		return "untyped"
	}
	return strings.Join(names, " / ")
}

// compare reports the first difference between the kernel and the model.
func (m *refKernel) compare(k *Kernel, segs []*Segment) error {
	if got := modelCounts(k.Stats()); got != m.stats {
		return fmt.Errorf("counts %+v, model %+v", got, m.stats)
	}
	for i, s := range segs {
		want := m.segs[i]
		if s.deleted != want.deleted {
			return fmt.Errorf("%s deleted %v, model %v", s, s.deleted, want.deleted)
		}
		got := make(map[int64]refPage, s.pages.len())
		s.pages.forEach(func(page int64, e *pageEntry) bool {
			got[page] = refPage{e.pfn, e.flags}
			return true
		})
		if !maps.Equal(got, want.pages) {
			for page := int64(0); ; page++ {
				g, gok := got[page]
				w, wok := want.pages[page]
				if g != w || gok != wok {
					return fmt.Errorf("%s page %d: %+v (present %v), model %+v (present %v)", s, page, g, gok, w, wok)
				}
			}
		}
	}
	return k.CheckFrameConservation()
}

// opsScript reads a fuzz input as a script, one byte per choice; an
// exhausted input reads zeros.
type opsScript []byte

func (s *opsScript) next() int {
	if len(*s) == 0 {
		return 0
	}
	v := (*s)[0]
	*s = (*s)[1:]
	return int(v)
}

func (s *opsScript) ranges() []PageRange {
	rs := make([]PageRange, s.next()%4)
	for i := range rs {
		rs[i] = PageRange{Page: int64(s.next() % 16), To: int64(s.next() % 16), Pages: int64(s.next() % 4)}
	}
	return rs
}

func (s *opsScript) cred() Cred {
	if s.next()%2 == 0 {
		return SystemCred
	}
	return AppCred
}

func (s *opsScript) flags() PageFlags { return PageFlags(s.next()) & (FlagDiscardable<<1 - 1) }

// opsWeights maps a script's op byte to a step: accesses and migrations,
// which move frames and deliver faults, come up most; deletions least, as
// a deleted segment turns every later step on it into ErrNoSuchSegment.
var opsWeights = [16]int{0, 0, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6}

// opsSeed is a random script of n bytes: the seed corpus FuzzKernelOps
// starts from.
func opsSeed(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// FuzzKernelOps runs a fuzz-chosen script of the §2.1 calls — create (with
// or without the test manager), bind, access, batched migrate, batched
// modify, get attributes and delete — on a serial kernel and on refKernel,
// and requires after every step the same error class, the same pages,
// frames and flags in every segment, the same call counts, and a conserved
// frame count. The script names segments by creation order: 0 is the boot
// segment, 1 the unmanaged donor the test manager takes frames from, 2 a
// managed segment.
func FuzzKernelOps(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(opsSeed(seed, 400))
	}
	// A read fault fills a managed page; a copy-on-write binding onto it is
	// written through; the private copy migrates out with its dirty and
	// referenced bits cleared; a write to a page made read-only faults for
	// protection; the front segment is deleted and the pages read back.
	f.Add([]byte{
		4, 2, 0, // access app page 0, read
		0, 1, // create segment 3, managed
		2, 1, 3, 0, 2, 2, 0, 1, // bind 3 [0,+2) -> app @0, copy-on-write, app cred
		4, 3, 16, // access 3 page 0, write
		9, 1, 3, 2, 1, 0, 5, 1, 0, 12, // migrate 3:0 -> app:5, clear dirty|ref
		12, 1, 2, 1, 0, 0, 1, 0, 2, // modify app page 0, clear write
		4, 2, 16, // access app page 0, write
		15, 1, 2, // delete 3
		14, 2, 0, 4, 0, // attributes of app pages 0..3
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		const frames = 256
		k := New(phys.NewMemory(phys.Config{FrameSize: 4096, TotalBytes: frames * 4096}), new(sim.Clock), sim.DECstation5000(), Config{})
		m := newRefKernel(frames, k.cfg.MaxFaultRetries)
		donor, _ := k.CreateSegment("donor", 1)
		app, _ := k.CreateSegment("app", 1)
		mgr := &opsManager{k: k, donor: donor}
		k.SetSegmentManager(app, mgr)
		segs := []*Segment{k.BootSegment(), donor, app}
		m.create(1, false)
		m.create(1, true)
		donorFill := []PageRange{{Page: 100, To: 0, Pages: 64}}
		if err := k.MigratePagesBatch(SystemCred, k.boot, donor, donorFill, 0, 0); err != nil {
			t.Fatal(err)
		}
		m.migrate(SystemCred, 0, 1, donorFill, 0, 0)
		s := opsScript(data)
		for step := 0; len(s) > 0; step++ {
			op := opsWeights[s.next()%len(opsWeights)]
			pick := func() int { return s.next() % len(segs) }
			var got, want error
			var what string
			switch op {
			case 0:
				v := s.next()
				fpp, managed := 1, v&3 != 0
				if v%16 == 15 {
					fpp = []int{0, 2, 3}[v/16%3]
				}
				what = fmt.Sprintf("create(%d, managed %v)", fpp, managed)
				var seg *Segment
				if seg, got = k.CreateSegment(fmt.Sprintf("s%d", len(segs)), fpp); got == nil {
					if managed {
						k.SetSegmentManager(seg, mgr)
					}
					segs = append(segs, seg)
				}
				want = m.create(fpp, managed)
			case 1:
				cred, a, start, n, b, to, cow := s.cred(), pick(), int64(s.next()%16), int64(s.next()%5), pick(), int64(s.next()%16), s.next()&1 != 0
				what = fmt.Sprintf("bind(%s, %d [%d,+%d) -> %d @%d, cow %v)", cred.Name, a, start, n, b, to, cow)
				got, want = k.BindRegion(cred, segs[a], start, n, segs[b], to, cow), m.bind(cred, a, start, n, b, to, cow)
			case 2:
				a, v := pick(), s.next()
				page, write := int64(v%16), v&16 != 0
				if v == 255 {
					page = -1
				}
				what = fmt.Sprintf("access(%d page %d, write %v)", a, page, write)
				got, want = k.Access(segs[a], page, accessType(write)), m.access(a, page, write)
			case 3:
				cred, a, b, rs, set, clr := s.cred(), pick(), pick(), s.ranges(), s.flags(), s.flags()
				what = fmt.Sprintf("migrate(%s, %d -> %d, %v, set %v, clear %v)", cred.Name, a, b, rs, set, clr)
				got, want = k.MigratePagesBatch(cred, segs[a], segs[b], rs, set, clr), m.migrate(cred, a, b, rs, set, clr)
			case 4:
				cred, a, rs, set, clr := s.cred(), pick(), s.ranges(), s.flags(), s.flags()
				what = fmt.Sprintf("modify(%s, %d, %v, set %v, clear %v)", cred.Name, a, rs, set, clr)
				got, want = k.ModifyPageFlagsBatch(cred, segs[a], rs, set, clr), m.modify(cred, a, rs, set, clr)
			case 5:
				a, first, n := pick(), int64(s.next()%16), s.next()%5
				pages := make([]int64, n)
				for i := range pages {
					pages[i] = first + int64(i)
				}
				what = fmt.Sprintf("attributes(%d, %v)", a, pages)
				var attrs, ref []PageAttribute
				if n > 0 && s.next()&1 == 0 {
					attrs, got = k.GetPageAttributes(segs[a], first, int64(n))
				} else {
					attrs, got = k.GetPageAttributesBatch(segs[a], pages, nil)
				}
				ref, want = m.attributes(a, pages)
				if got == nil {
					for i := range attrs {
						attrs[i] = PageAttribute{Page: attrs[i].Page, Present: attrs[i].Present, Flags: attrs[i].Flags, PFN: attrs[i].PFN}
					}
					if !slices.Equal(attrs, ref) {
						t.Fatalf("step %d %s: attributes %v, model %v", step, what, attrs, ref)
					}
				}
			case 6:
				cred, a := s.cred(), 1+s.next()%(len(segs)-1) // never the boot segment
				what = fmt.Sprintf("delete(%s, %d)", cred.Name, a)
				got, want = k.DeleteSegment(cred, segs[a]), m.remove(cred, a)
			}
			if g, w := errClass(got), errClass(want); g != w {
				t.Fatalf("step %d %s: error %q (%v), model %q", step, what, g, got, w)
			}
			if err := m.compare(k, segs); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
		}
	})
}

func accessType(write bool) AccessType {
	if write {
		return Write
	}
	return Read
}
