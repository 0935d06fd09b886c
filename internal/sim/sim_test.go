package sim

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"epcm/internal/harness"
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
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("timer order = %v", order)
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("clock = %v", c.Now())
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

// TestCallbackPanicReachesRun: a panic in a callback unwinds into Run's
// caller, so harness.Run — which every experiment runs under — reports it
// as that task's error.
func TestCallbackPanicReachesRun(t *testing.T) {
	boom := errors.New("boom")
	run := func() (int, error) {
		e := NewSerialEnv(&Clock{})
		e.At(time.Second, func() {})
		e.At(time.Millisecond, func() { e.After(time.Millisecond, func() { panic(boom) }) })
		e.Run()
		return 0, nil
	}
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Run recovered %v, want the callback's panic value", r)
			}
		}()
		run()
		t.Fatal("Run returned")
	}()
	res := harness.Run([]harness.Task[int]{{Name: "ok", Run: func() (int, error) { return 7, nil }}, {Name: "bad", Run: run}}, 1)
	var pe *harness.PanicError
	if res[0].Err != nil || res[0].Value != 7 || !errors.As(res[1].Err, &pe) || pe.Value != boom {
		t.Fatalf("harness results = %+v, want task 0 fine and task 1 a PanicError carrying the callback's value", res)
	}
}

// Percentile agrees with a reference implementation on random data: values
// drawn from 3, 12 or 10 000 choices (from mostly duplicates to mostly
// distinct), read after a first batch of samples and again after a second
// batch arrives (the series sorts again).
func TestSeriesPercentileProperty(t *testing.T) {
	rng := NewRNG(17)
	f := func(n, m, width uint8) bool {
		choices := []int{3, 12, 10000}[width%3]
		var s Series
		var vals []time.Duration
		for _, batch := range []int{int(n) + 1, int(m)} {
			for i := 0; i < batch; i++ {
				d := time.Duration(rng.Intn(choices)) * time.Microsecond
				s.Add(d)
				vals = append(vals, d)
			}
			sorted := append([]time.Duration(nil), vals...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, p := range []float64{0, 1, 25, 50, 90, 95, 99, 100} {
				rank := int(math.Ceil(p / 100 * float64(len(sorted))))
				if rank < 1 {
					rank = 1
				}
				if s.Percentile(p) != sorted[rank-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
