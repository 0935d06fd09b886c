package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestChaosShardedTimeHorizons hammers the windowed drain: across many
// seeded runs, four shards each run strands of callbacks whose gaps straddle
// the window width — zero, one below the lookahead, exactly it, one past it,
// and random — so events land on every side of a window's horizon. Shards
// share no events, so each shard's trace must equal what its strands do
// alone on the serial engine and end at the same clock. Runs in the chaos
// stage of scripts/check.sh under -race, where a drain goroutine leaking
// past its window would also trip the detector.
func TestChaosShardedTimeHorizons(t *testing.T) {
	const shards, strands, steps = 4, 4, 200
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			// play schedules shard i's strands on sh.
			play := func(sh *Shard, i int, L time.Duration, trace *[]string) {
				for pid := 0; pid < strands; pid++ {
					rng := NewRNG(seed*1000 + uint64(i*32+pid))
					gaps := []time.Duration{0, L - 1, L, L + 1}
					strand(sh, trace, fmt.Sprintf("s%d-p%d", i, pid), 0, steps, func() time.Duration {
						if k := rng.Intn(len(gaps) + 1); k < len(gaps) {
							return gaps[k]
						}
						return time.Duration(rng.Intn(80)) * time.Microsecond
					})
				}
			}
			e := NewShardedEnv(&Clock{}, shards, 0)
			traces := make([][]string, shards) // per shard, touched only by its drain goroutine
			for i := 0; i < shards; i++ {
				play(e.Shard(i), i, e.lookahead, &traces[i])
			}
			e.Run()
			for i := 0; i < shards; i++ {
				ref := NewSerialEnv(&Clock{})
				var want []string
				play(ref.Shard(0), i, e.lookahead, &want)
				ref.Run()
				if !slices.Equal(traces[i], want) {
					t.Fatalf("shard %d: %d steps on the sharded engine differ from %d alone on the serial engine",
						i, len(traces[i]), len(want))
				}
				if got := e.Shard(i).Now(); got != ref.Now() {
					t.Fatalf("shard %d clock %v, alone on the serial engine %v", i, got, ref.Now())
				}
			}
		})
	}
}
