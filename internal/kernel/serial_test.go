package kernel

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// nestManager is a testManager that logs what it is handed and, while nest
// is set, runs nest inside HandleFault before resolving.
type nestManager struct {
	*testManager
	name string
	note func(format string, args ...any)
	nest func() error
}

func (m *nestManager) ManagerName() string { return m.name }

func (m *nestManager) HandleFault(f Fault) error {
	m.note("%s fault %s/%d", m.name, f.Seg.Name(), f.Page)
	if m.nest != nil {
		if err := m.nest(); err != nil {
			return err
		}
	}
	return m.testManager.HandleFault(f)
}

func (m *nestManager) SegmentDeleted(s *Segment) {
	m.note("%s deleted %s", m.name, s.Name())
	m.testManager.SegmentDeleted(s)
}

// nestedRun is what one TestSerialNestedDelivery run observed.
type nestedRun struct {
	log   []string
	err   error
	stats Stats
	now   time.Duration
}

var errOuterGivesUp = errors.New("outer handler gives up")

// runNested boots a serial kernel with four managers — a (the outer
// fault's), b, c and the default manager — and has a's handler, in the
// middle of the outer fault, fault a page of b's segment, delete c's segment
// and Exec on c. With crash set, the interceptor crashes b on its fault, so
// Revoke runs inside a's handler and the default manager takes the fault;
// with fail set, a's handler then returns an error instead of resolving.
func runNested(t *testing.T, crash, fail bool) nestedRun {
	t.Helper()
	k := newTestKernel(t)
	var r nestedRun
	note := func(format string, args ...any) { r.log = append(r.log, fmt.Sprintf(format, args...)) }
	mgr := func(name string, start int64) *nestManager {
		return &nestManager{testManager: newOffsetTestManager(t, k, start, 16, DeliverSameProcess), name: name, note: note}
	}
	a, b, c, def := mgr("a", 0), mgr("b", 16), mgr("c", 32), mgr("def", 48)
	k.SetDefaultManager(def)
	seg := func(name string, m Manager) *Segment {
		s, err := k.CreateSegment(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		k.SetSegmentManager(s, m)
		return s
	}
	outer, segB, segC := seg("outer", a), seg("segB", b), seg("segC", c)
	if err := k.Access(segC, 0, Write); err != nil { // something for c to salvage
		t.Fatal(err)
	}
	if crash {
		k.SetInterceptor(func(f Fault, m Manager) InterceptResult {
			if m == Manager(b) {
				note("crash b on %s/%d", f.Seg.Name(), f.Page)
				return InterceptResult{Crash: true}
			}
			return InterceptResult{}
		})
	}
	a.nest = func() error {
		if err := k.Access(segB, 5, Write); err != nil {
			t.Errorf("nested fault: %v", err)
		}
		if err := k.DeleteSegment(AppCred, segC); err != nil {
			t.Errorf("nested delete: %v", err)
		}
		k.Scheduler().Exec(c, func() { note("exec on c") })
		if fail {
			return errOuterGivesUp
		}
		return nil
	}
	r.err = k.Access(outer, 3, Write)
	a.nest = nil

	// The outer fault's value and outcome survived the nested deliveries.
	if fail {
		want := Fault{Seg: outer, Page: 3, Access: Write, Kind: FaultMissing}.String()
		if !errors.Is(r.err, errOuterGivesUp) || !errors.Is(r.err, ErrManagerFailed) || !strings.Contains(r.err.Error(), want) {
			t.Errorf("outer Access = %v, want ErrManagerFailed on %q wrapping %v", r.err, want, errOuterGivesUp)
		}
		if outer.HasPage(3) {
			t.Error("outer page resident although its handler failed")
		}
	} else {
		if r.err != nil {
			t.Errorf("outer Access = %v, want nil", r.err)
		}
		if !outer.HasPage(3) {
			t.Error("outer page not resident")
		}
	}
	if !segB.HasPage(5) {
		t.Error("nested fault's page not resident")
	}
	if _, err := k.Lookup(segC.ID()); err == nil {
		t.Error("nested delete left its segment registered")
	}
	if err := k.CheckFrameConservation(); err != nil {
		t.Error(err)
	}
	r.stats, r.now = k.Stats(), k.Clock().Now()
	return r
}

// TestSerialNestedDelivery: on the serial scheduler a delivery nested inside
// a handler — a fault to a second manager, a deletion notice, an Exec, and
// a crash whose Revoke runs mid-handler — is handled exactly once, in call
// order: the outer fault's value and outcome come back intact, and two runs
// agree on every counter.
func TestSerialNestedDelivery(t *testing.T) {
	t.Parallel()
	for _, row := range []struct {
		name        string
		crash, fail bool
	}{
		{"resolve", false, false},
		{"fail", false, true},
		{"crash", true, false},
		{"crash-fail", true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			want := []string{"c fault segC/0", "a fault outer/3", "b fault segB/5", "c deleted segC", "exec on c"}
			if row.crash {
				want = slices.Insert(slices.Delete(want, 2, 3), 2, "crash b on segB/5", "def fault segB/5")
			}
			first := runNested(t, row.crash, row.fail)
			if !slices.Equal(first.log, want) {
				t.Errorf("handled:\n  %s\nwant:\n  %s", strings.Join(first.log, "\n  "), strings.Join(want, "\n  "))
			}
			if got, wantRevoked := first.stats.Revocations, map[bool]int64{false: 0, true: 1}[row.crash]; got != wantRevoked {
				t.Errorf("%d revocations, want %d", got, wantRevoked)
			}
			second := runNested(t, row.crash, row.fail)
			if first.stats != second.stats || first.now != second.now || !slices.Equal(first.log, second.log) {
				t.Errorf("two runs differ:\n  stats %+v at %v\n  stats %+v at %v", first.stats, first.now, second.stats, second.now)
			}
		})
	}
}
