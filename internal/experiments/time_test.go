package experiments

import "testing"

// TestTimeSweepSmoke runs the time sweep end to end — the model-throughput
// scaling gate must hold — and pins what the golden file relies on: a cell
// repeats exactly, and every multi-shard cell exercises cross-shard sends.
func TestTimeSweepSmoke(t *testing.T) {
	t.Parallel()
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
