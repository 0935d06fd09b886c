package experiments

import (
	"bytes"
	"os"
	"testing"

	"epcm/internal/sim"
)

// TestGoldenShardedTimeEngine re-runs every paper table with the boot
// virtual-time engine flipped to "sharded" and compares the output
// byte-for-byte against testdata/reproduce.golden. The differential pin for
// the engine refactor: a single-shard sharded environment drains the same
// event heap in the same (at, seq) order through the windowed machinery, so
// -timeengine sharded must not move a single byte of the paper tables. If a
// window boundary, merge, or clock hand-off ever perturbs event order, this
// test names the first divergent byte.
func TestGoldenShardedTimeEngine(t *testing.T) {
	prev := sim.BootTimeEngine()
	if err := sim.SetBootTimeEngine("sharded"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sim.SetBootTimeEngine(prev); err != nil {
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
	requireGolden(t, "sharded time engine", got.Bytes(), want)
}

// TestTimeSweepSmoke runs the time sweep end to end — the model-throughput
// scaling gate must hold — and pins what the golden file relies on: a cell
// repeats exactly, and every multi-shard cell exercises cross-shard sends.
func TestTimeSweepSmoke(t *testing.T) {
	rep, err := timeSweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("time sweep gate failed:\n%s", rep.Output)
	}
	for _, shards := range []int{1, 2, 4} {
		a, err := runTimeCell("sharded", shards, 16384/(timeSweepProcs*shards))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runTimeCell("sharded", shards, 16384/(timeSweepProcs*shards))
		if err != nil {
			t.Fatal(err)
		}
		if *a != *b {
			t.Fatalf("%d shards: cell not deterministic: %+v vs %+v", shards, *a, *b)
		}
		if a.Events <= 0 || a.Makespan <= 0 {
			t.Fatalf("degenerate cell %+v", *a)
		}
		if shards > 1 && a.CrossSends == 0 {
			t.Fatalf("sharded cell %d shards exercised no cross-shard sends", shards)
		}
	}
}
