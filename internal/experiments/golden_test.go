package experiments

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"epcm/internal/harness"
	"epcm/internal/manager"
)

// TestReproduceGolden locks the reproduce output byte-for-byte against
// testdata/reproduce.golden, captured before the fault plane existed. The
// plane is compiled in but disarmed (Config.FaultPlan nil leaves every hook
// seam a dead branch), so this is the regression gate for the plane's
// zero-overhead claim: if wiring injection seams through storage, kernel
// delivery or SPCM grants ever perturbs an uninjected run — an extra clock
// charge, a reordered grant, a different RNG draw — the tables drift and
// this test names the first divergent byte.
//
// Regenerate (only after an intentional model change):
//
//	go run ./cmd/reproduce > internal/experiments/testdata/reproduce.golden
func TestReproduceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/reproduce.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, run := range []func() (*Report, error){
		Table1,
		Tables23,
		func() (*Report, error) { return Table4(0, 0) },
	} {
		rep, err := run()
		if err != nil {
			t.Fatal(err)
		}
		got.Write(rep.Output)
	}
	requireGolden(t, "reproduce output", got.Bytes(), want)
}

// TestGoldenWithExplicitClockPolicy re-runs the golden comparison with the
// boot replacement policy set explicitly to "clock" via the registry. The
// pluggable-policy plane extracted the clock sweep out of Generic.Reclaim;
// this pins that the extraction is charge-for-charge identical — the
// registry-constructed clock policy must issue the same GetPageAttribute /
// ModifyPageFlags sequence the inlined sweep did, or the tables drift.
func TestGoldenWithExplicitClockPolicy(t *testing.T) {
	prev := manager.BootPolicy()
	if err := manager.SetBootPolicy("clock"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := manager.SetBootPolicy(prev); err != nil {
			t.Fatal(err)
		}
	}()
	want, err := os.ReadFile("testdata/reproduce.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, run := range []func() (*Report, error){
		Table1,
		Tables23,
		func() (*Report, error) { return Table4(0, 0) },
	} {
		rep, err := run()
		if err != nil {
			t.Fatal(err)
		}
		got.Write(rep.Output)
	}
	requireGolden(t, "explicit clock policy", got.Bytes(), want)
}

// TestTable1PolicyInvariance checks that Table 1 — whose fault measurements
// never trigger a reclaim — is identical under every registered policy:
// the policy plane must be off the minimal-fault path entirely.
func TestTable1PolicyInvariance(t *testing.T) {
	prev := manager.BootPolicy()
	defer func() { _ = manager.SetBootPolicy(prev) }()
	var base []byte
	for _, name := range manager.PolicyNames() {
		if err := manager.SetBootPolicy(name); err != nil {
			t.Fatal(err)
		}
		rep, err := Table1()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if base == nil {
			base = rep.Output
			continue
		}
		if !bytes.Equal(rep.Output, base) {
			t.Fatalf("Table 1 output differs under policy %s:\n%s", name, rep.Output)
		}
	}
}

// TestSweepsGolden locks the four extension tables byte-for-byte against
// testdata/sweeps.golden, rendered as cmd/reproduce -sweep all renders them
// — as parallel harness tasks — sequentially and at parallelism 4. Every
// column they print is a cost-model number, so the file holds on any host.
//
// Regenerate (only after an intentional model change):
//
//	go run ./cmd/reproduce -table 1 -sweep all | tail -n +10 > internal/experiments/testdata/sweeps.golden
func TestSweepsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/sweeps.golden")
	if err != nil {
		t.Fatal(err)
	}
	var tasks []harness.Task[*Report]
	for _, s := range Sweeps {
		tasks = append(tasks, harness.Task[*Report]{Name: s.Name, Run: s.Run})
	}
	for _, par := range []int{1, 4} {
		results := harness.Run(tasks, par)
		for _, r := range results {
			if r.Err == nil && !r.Value.OK {
				t.Errorf("par=%d: %s sweep missed its gate:\n%s", par, r.Name, r.Value.Output)
			}
		}
		requireGolden(t, fmt.Sprintf("sweeps at par=%d", par), render(t, results), want)
	}
}

// requireGolden fails the test, naming the first divergent byte and the
// line around it, unless got equals want.
func requireGolden(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	t.Fatalf("%s diverged from golden at byte %d (got %d bytes, want %d)\n--- got around divergence ---\n%s",
		what, i, len(got), len(want), context(got, i))
}

// context returns the line region around byte offset i for the failure
// message.
func context(b []byte, i int) []byte {
	lo, hi := i, i
	for lo > 0 && b[lo-1] != '\n' {
		lo--
	}
	for hi < len(b) && b[hi] != '\n' {
		hi++
	}
	return b[lo:hi]
}
