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
// testdata/reproduce.golden, captured before the fault plane existed, in
// every mode: the modes change how the simulation runs, never what it
// computes. The rows run in parallel, so every combination is also booted
// beside the others in one process.
//
//   - default: the fault plane is compiled in but disarmed (Config.FaultPlan
//     nil leaves every hook seam a dead branch), so this is the regression
//     gate for its zero-overhead claim — an extra clock charge, a reordered
//     grant or a different RNG draw on an uninjected run drifts the tables.
//   - concurrent and superpages: the concurrent delivery scheduler and the
//     superpage plane; a delivery or an extent that changes a charge or a
//     grant order moves the tables.
//   - explicit clock: the clock policy NewPolicy builds by name must issue
//     the same GetPageAttribute / ModifyPageFlags sequence as the manager's
//     nil-Policy default.
//
// On a mismatch the test names the first divergent byte.
//
// Regenerate (only after an intentional model change):
//
//	go run ./cmd/reproduce > internal/experiments/testdata/reproduce.golden
func TestReproduceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/reproduce.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		m    Modes
	}{
		{"default", Modes{}},
		{"concurrent", Modes{Concurrent: true}},
		{"superpages", Modes{Superpages: true}},
		{"explicit-clock", Modes{Policy: "clock"}},
		{"all-together", Modes{Concurrent: true, Superpages: true, Policy: "clock"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			var got bytes.Buffer
			for _, run := range []func() (*Report, error){
				row.m.Table1,
				row.m.Tables23,
				func() (*Report, error) { return row.m.Table4(0, 0) },
			} {
				rep, err := run()
				if err != nil {
					t.Fatal(err)
				}
				got.Write(rep.Output)
			}
			requireGolden(t, row.name, got.Bytes(), want)
		})
	}
}

// TestTable1PolicyInvariance checks that Table 1 — whose fault measurements
// never trigger a reclaim — is identical under every named policy:
// the policy plane must be off the minimal-fault path entirely.
func TestTable1PolicyInvariance(t *testing.T) {
	t.Parallel()
	var base []byte
	for _, name := range manager.PolicyNames() {
		rep, err := Modes{Policy: name}.Table1()
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

// TestSweepsGolden locks the three extension tables byte-for-byte against
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
