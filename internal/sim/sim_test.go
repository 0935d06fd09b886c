package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %v, want 0", c.Now())
	}
	c.Advance(3 * time.Microsecond)
	c.Advance(2 * time.Millisecond)
	if got, want := c.Now(), 2*time.Millisecond+3*time.Microsecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	c.AdvanceTo(5 * time.Millisecond)
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("AdvanceTo: Now() = %v", c.Now())
	}
}

func TestClockNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestClockBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past did not panic")
		}
	}()
	var c Clock
	c.Advance(time.Second)
	c.AdvanceTo(time.Millisecond)
}

func TestStopwatch(t *testing.T) {
	var c Clock
	sw := NewStopwatch(&c)
	c.Advance(42 * time.Microsecond)
	if sw.Elapsed() != 42*time.Microsecond {
		t.Fatalf("Elapsed = %v", sw.Elapsed())
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at %d", i)
		}
	}
	c := NewRNG(8)
	same := 0
	a = NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed streams coincided %d times", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(25.0)
	}
	mean := sum / n
	if mean < 24 || mean > 26 {
		t.Fatalf("Exp(25) sample mean = %v, want ~25", mean)
	}
}

func TestSeriesStats(t *testing.T) {
	var s Series
	for _, ms := range []int{10, 20, 30, 40, 50} {
		s.Add(time.Duration(ms) * time.Millisecond)
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Mean() != 30*time.Millisecond {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Max() != 50*time.Millisecond {
		t.Fatalf("Max = %v", s.Max())
	}
	if got := s.Percentile(50); got != 30*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(100); got != 50*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.Percentile(99) != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestSeriesPercentileSortedOnce(t *testing.T) {
	var s Series
	for i := 100; i > 0; i-- {
		s.Add(time.Duration(i) * time.Microsecond)
	}
	if got := s.Percentile(1); got != 1*time.Microsecond {
		t.Fatalf("p1 = %v", got)
	}
	s.Add(200 * time.Microsecond) // invalidates sort
	if got := s.Percentile(100); got != 200*time.Microsecond {
		t.Fatalf("p100 after Add = %v", got)
	}
}

// Table 1 calibration: every composed path must land exactly on the paper's
// measurement.
func TestCostModelTable1Calibration(t *testing.T) {
	c := DECstation5000()
	cases := []struct {
		name string
		got  time.Duration
		want time.Duration
	}{
		{"V++ minimal fault, faulting process", c.VppMinimalFaultSameProcess(), 107 * time.Microsecond},
		{"V++ minimal fault, default manager", c.VppMinimalFaultSeparateManager(), 379 * time.Microsecond},
		{"Ultrix minimal fault", c.UltrixMinimalFault(), 175 * time.Microsecond},
		{"Ultrix user-level fault handler", c.UltrixUserFaultHandler(), 152 * time.Microsecond},
		{"V++ read 4KB", c.VppRead4K(), 222 * time.Microsecond},
		{"V++ write 4KB", c.VppWrite4K(), 203 * time.Microsecond},
		{"Ultrix read 4KB", c.UltrixRead4K(), 211 * time.Microsecond},
		{"Ultrix write 4KB", c.UltrixWrite4K(), 311 * time.Microsecond},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: composed cost %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// The paper attributes most of the V++/Ultrix minimal-fault difference to
// Ultrix's security page zeroing (75 µs).
func TestZeroFillDominatesFaultGap(t *testing.T) {
	c := DECstation5000()
	gap := c.UltrixMinimalFault() - c.VppMinimalFaultSameProcess()
	if gap != 68*time.Microsecond {
		t.Fatalf("fault gap = %v, want 68µs (paper: 175-107)", gap)
	}
	if c.ZeroPage != 75*time.Microsecond {
		t.Fatalf("ZeroPage = %v, want 75µs", c.ZeroPage)
	}
}

func TestEnvTimers(t *testing.T) {
	var c Clock
	e := NewSerialEnv(&c)
	var order []int
	e.At(3*time.Second, func() { order = append(order, 3) })
	e.At(1*time.Second, func() { order = append(order, 1) })
	e.At(2*time.Second, func() { order = append(order, 2) })
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("timer order = %v", order)
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("clock = %v", c.Now())
	}
}

func TestEnvProcSleep(t *testing.T) {
	var c Clock
	e := NewSerialEnv(&c)
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10 * time.Millisecond)
		trace = append(trace, "a1")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(5 * time.Millisecond)
		trace = append(trace, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "b1", "a1"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if c.Now() != 10*time.Millisecond {
		t.Fatalf("clock = %v", c.Now())
	}
}

func TestEnvParkWake(t *testing.T) {
	var c Clock
	e := NewSerialEnv(&c)
	var woke time.Duration
	var sleeper *Proc
	done := false
	e.Go("sleeper", func(p *Proc) {
		sleeper = p
		p.Park()
		woke = p.Now()
		done = true
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		p.Env().Wake(sleeper)
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	if !done || woke != 7*time.Millisecond {
		t.Fatalf("done=%v woke=%v", done, woke)
	}
}

func TestEnvDetectsPermanentBlock(t *testing.T) {
	var c Clock
	e := NewSerialEnv(&c)
	e.Go("stuck", func(p *Proc) { p.Park() })
	if blocked := e.Run(); blocked != 1 {
		t.Fatalf("blocked = %d, want 1", blocked)
	}
}

func TestResourceFIFOAndCapacity(t *testing.T) {
	var c Clock
	e := NewSerialEnv(&c)
	r := NewResource(e, 2)
	var order []string
	worker := func(name string, hold time.Duration) func(*Proc) {
		return func(p *Proc) {
			r.Acquire(p)
			order = append(order, name+"+")
			p.Sleep(hold)
			order = append(order, name+"-")
			r.Release()
		}
	}
	e.Go("w1", worker("w1", 10*time.Millisecond))
	e.Go("w2", worker("w2", 10*time.Millisecond))
	e.Go("w3", worker("w3", 10*time.Millisecond))
	e.Go("w4", worker("w4", 10*time.Millisecond))
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("blocked = %d", blocked)
	}
	// w1 and w2 run immediately; w3 and w4 wait for releases, in order.
	// w2's own sleep-end event was scheduled before w3's grant event, so at
	// t=10ms w2 finishes before w3 starts.
	want := []string{"w1+", "w2+", "w1-", "w2-", "w3+", "w4+", "w3-", "w4-"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if c.Now() != 20*time.Millisecond {
		t.Fatalf("makespan = %v, want 20ms (2 waves of 10ms on 2 units)", c.Now())
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatalf("resource not drained: inUse=%d queue=%d", r.InUse(), r.QueueLen())
	}
}

func TestResourceWaitStats(t *testing.T) {
	var c Clock
	e := NewSerialEnv(&c)
	r := NewResource(e, 1)
	e.Go("a", func(p *Proc) { r.Use(p, func() { p.Sleep(4 * time.Millisecond) }) })
	e.Go("b", func(p *Proc) { r.Use(p, func() { p.Sleep(4 * time.Millisecond) }) })
	e.Run()
	if r.WaitStats().Count() != 2 {
		t.Fatalf("wait samples = %d", r.WaitStats().Count())
	}
	if r.WaitStats().Max() != 4*time.Millisecond {
		t.Fatalf("max wait = %v, want 4ms", r.WaitStats().Max())
	}
}

// TestResourceReleaseClearsDeadHeads: Release reslices the wait queue past
// its head, so the head's slot must be cleared first or the backing array
// keeps the woken process reachable until the slice next reallocates. The
// test watches the whole array of a queue that never has to grow.
func TestResourceReleaseClearsDeadHeads(t *testing.T) {
	e := NewSerialEnv(&Clock{})
	r := NewResource(e, 1)
	const procs = 16
	r.waiters = make([]*Proc, 0, procs)
	array := r.waiters[:procs]
	for i := 0; i < procs; i++ {
		e.Go("p", func(p *Proc) { r.Use(p, func() { p.Sleep(time.Millisecond) }) })
	}
	if blocked := e.Run(); blocked != 0 || r.QueueLen() != 0 {
		t.Fatalf("%d blocked, %d still queued", blocked, r.QueueLen())
	}
	if r.WaitStats().Max() != (procs-1)*time.Millisecond {
		t.Fatalf("max wait %v: the run was not contended", r.WaitStats().Max())
	}
	for i, p := range array {
		if p != nil {
			t.Fatalf("slot %d of the wait queue's array still holds a woken process", i)
		}
	}
}

func TestResourceOverReleasePanics(t *testing.T) {
	var c Clock
	e := NewSerialEnv(&c)
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	r.Release()
}

func TestEnvManyProcsDeterministic(t *testing.T) {
	run := func() (time.Duration, int64) {
		var c Clock
		e := NewSerialEnv(&c)
		r := NewResource(e, 3)
		rng := NewRNG(99)
		var total int64
		for i := 0; i < 200; i++ {
			d := time.Duration(rng.Intn(1000)+1) * time.Microsecond
			e.GoAt(time.Duration(rng.Intn(5000))*time.Microsecond, "p", func(p *Proc) {
				r.Acquire(p)
				p.Sleep(d)
				r.Release()
				total++
			})
		}
		e.Run()
		return c.Now(), total
	}
	t1, n1 := run()
	t2, n2 := run()
	if n1 != 200 || n2 != 200 {
		t.Fatalf("completions %d, %d", n1, n2)
	}
	if t1 != t2 {
		t.Fatalf("non-deterministic makespan: %v vs %v", t1, t2)
	}
}

func TestEnvAtInPastPanics(t *testing.T) {
	var c Clock
	e := NewSerialEnv(&c)
	c.Advance(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	e.At(time.Millisecond, func() {})
}

func TestEnvGoAtInPastPanics(t *testing.T) {
	var c Clock
	e := NewSerialEnv(&c)
	c.Advance(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("GoAt in the past did not panic")
		}
	}()
	e.GoAt(time.Millisecond, "p", func(p *Proc) {})
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	var c Clock
	e := NewSerialEnv(&c)
	var fired []int
	e.At(1*time.Second, func() { fired = append(fired, 1) })
	e.At(3*time.Second, func() { fired = append(fired, 3) })
	e.RunUntil(2 * time.Second)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v", fired)
	}
	if c.Now() != 1*time.Second {
		t.Fatalf("clock = %v", c.Now())
	}
	// The rest still runs later.
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestProcSleepNegativePanics(t *testing.T) {
	var c Clock
	e := NewSerialEnv(&c)
	panicked := false
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Sleep(-1)
	})
	e.Run()
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}

func TestResourceUseReleasesOnReturn(t *testing.T) {
	var c Clock
	e := NewSerialEnv(&c)
	r := NewResource(e, 1)
	e.Go("a", func(p *Proc) {
		r.Use(p, func() { p.Sleep(time.Millisecond) })
		if r.InUse() != 0 {
			t.Error("Use did not release")
		}
	})
	e.Run()
}

// Percentile agrees with a reference implementation on random data.
func TestSeriesPercentileProperty(t *testing.T) {
	rng := NewRNG(17)
	f := func(n uint8) bool {
		var s Series
		vals := make([]time.Duration, 0, int(n)+1)
		for i := 0; i <= int(n); i++ {
			d := time.Duration(rng.Intn(10000)) * time.Microsecond
			s.Add(d)
			vals = append(vals, d)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, p := range []float64{1, 25, 50, 90, 99, 100} {
			rank := int(math.Ceil(p / 100 * float64(len(vals))))
			if rank < 1 {
				rank = 1
			}
			if s.Percentile(p) != vals[rank-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
