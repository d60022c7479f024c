package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xport"
)

// shardStrategies are the aggregation strategies every differential test
// covers, mirroring the experiment tables.
var shardStrategies = []struct {
	name string
	opts core.Options
}{
	{"baseline", core.Options{Strategy: core.StrategyBaseline}},
	{"ploggp", core.Options{Strategy: core.StrategyPLogGP}},
	{"timer", core.Options{Strategy: core.StrategyTimerPLogGP, Delta: 3 * time.Millisecond}},
}

// TestShardedP2PMatchesSerial runs the point-to-point benchmark serial and
// sharded across every provider and strategy, and requires identical
// per-iteration observations: the conservative shard runtime must not
// change a single timestamp. It walks the provider registry, so a provider
// added later is covered without editing this list. (The shm provider places both ranks on one
// node, so its shard count clamps to 1 — the run still exercises the
// sharded world plumbing end to end.)
func TestShardedP2PMatchesSerial(t *testing.T) {
	for _, provider := range xport.Names() {
		for _, strat := range shardStrategies {
			t.Run(provider+"/"+strat.name, func(t *testing.T) {
				cfg := P2PConfig{
					Parts:           8,
					Bytes:           1 << 20,
					Compute:         200 * time.Microsecond,
					NoisePct:        4,
					JitterPerThread: 2 * time.Microsecond,
					Warmup:          2,
					Iters:           6,
					Opts:            strat.opts,
					Provider:        provider,
				}
				serial, err := RunP2P(cfg)
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				cfg.Shards = 2
				sharded, err := RunP2P(cfg)
				if err != nil {
					t.Fatalf("sharded: %v", err)
				}
				if serial.FabricMessages != sharded.FabricMessages {
					t.Errorf("fabric messages serial %d != sharded %d", serial.FabricMessages, sharded.FabricMessages)
				}
				for i := range serial.IterTimes {
					if serial.IterTimes[i] != sharded.IterTimes[i] {
						t.Errorf("iter %d: IterTimes serial %v != sharded %v", i, serial.IterTimes[i], sharded.IterTimes[i])
					}
					if serial.LastLatency[i] != sharded.LastLatency[i] {
						t.Errorf("iter %d: LastLatency serial %v != sharded %v", i, serial.LastLatency[i], sharded.LastLatency[i])
					}
				}
			})
		}
	}
}

// TestShardedSweepMatchesSerial runs the Sweep3D wavefront on an 8-node
// grid at 2, 4, and 8 shards and requires per-iteration times identical to
// the serial run — the multi-node case where every shard hosts a distinct
// subset of ranks and all traffic between them crosses shard boundaries.
func TestShardedSweepMatchesSerial(t *testing.T) {
	base := SweepConfig{
		GridX:    4,
		GridY:    2,
		Threads:  4,
		Bytes:    256 << 10,
		Compute:  50 * time.Microsecond,
		NoisePct: 10,
		Warmup:   1,
		Iters:    3,
		Opts:     core.Options{Strategy: core.StrategyPLogGP},
	}
	serial, err := RunSweep(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := base
			cfg.Shards = shards
			sharded, err := RunSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.IterTimes) != len(sharded.IterTimes) {
				t.Fatalf("iteration counts differ: serial %d sharded %d", len(serial.IterTimes), len(sharded.IterTimes))
			}
			for i := range serial.IterTimes {
				if serial.IterTimes[i] != sharded.IterTimes[i] {
					t.Errorf("iter %d: serial %v != sharded %v", i, serial.IterTimes[i], sharded.IterTimes[i])
				}
			}
		})
	}
}

// TestShardedHaloMatchesSerial runs the halo exchange on a 2x2 grid at 2
// and 4 shards against the serial oracle.
func TestShardedHaloMatchesSerial(t *testing.T) {
	base := HaloConfig{
		GridX:    2,
		GridY:    2,
		Threads:  4,
		Bytes:    128 << 10,
		Compute:  50 * time.Microsecond,
		NoisePct: 5,
		Warmup:   1,
		Iters:    3,
		Opts:     core.Options{Strategy: core.StrategyTimerPLogGP, Delta: 100 * time.Microsecond},
	}
	serial, err := RunHalo(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, shards := range []int{2, 4} {
		cfg := base
		cfg.Shards = shards
		sharded, err := RunHalo(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range serial.IterTimes {
			if serial.IterTimes[i] != sharded.IterTimes[i] {
				t.Errorf("shards=%d iter %d: serial %v != sharded %v", shards, i, serial.IterTimes[i], sharded.IterTimes[i])
			}
		}
	}
}

// TestShardedFatTreeSweepMatchesSerial drives the full MPI stack over a
// multi-switch fabric: the Sweep3D wavefront on a fat-tree whose 8 hosts
// exactly fill the topology, serial versus sharded. With a graph
// topology the shard slabs snap to edge-switch boundaries and every
// cross-switch message is charged per link, so this pins the per-hop
// arbitration to the canonical-order discipline end to end — timestamps
// and final receive-buffer digests must not move.
func TestShardedFatTreeSweepMatchesSerial(t *testing.T) {
	base := SweepConfig{
		GridX:    4,
		GridY:    2,
		Threads:  4,
		Bytes:    256 << 10,
		Compute:  50 * time.Microsecond,
		NoisePct: 10,
		Warmup:   1,
		Iters:    3,
		Opts:     core.Options{Strategy: core.StrategyPLogGP},
		Topo:     "fat-tree:k=4",
	}
	serial, err := RunSweep(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, shards := range []int{2, 4} {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				cfg := base
				cfg.Shards = shards
				cfg.Workers = workers
				sharded, err := RunSweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := range serial.IterTimes {
					if serial.IterTimes[i] != sharded.IterTimes[i] {
						t.Errorf("iter %d: serial %v != sharded %v", i, serial.IterTimes[i], sharded.IterTimes[i])
					}
				}
				for r := range serial.BufferSums {
					if serial.BufferSums[r] != sharded.BufferSums[r] {
						t.Errorf("rank %d: buffer digest serial %#x != sharded %#x", r, serial.BufferSums[r], sharded.BufferSums[r])
					}
				}
			})
		}
	}
}

// TestShardedSingleLinkTopoMatchesDefault pins the deprecation shim's
// parity promise at the bench layer: an explicit -topo single-link run is
// byte-identical to the default fabric, serial and sharded.
func TestShardedSingleLinkTopoMatchesDefault(t *testing.T) {
	base := P2PConfig{
		Parts:   8,
		Bytes:   512 << 10,
		Compute: 100 * time.Microsecond,
		Warmup:  1,
		Iters:   4,
		Opts:    core.Options{Strategy: core.StrategyPLogGP},
	}
	def, err := RunP2P(base)
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	for _, shards := range []int{0, 2} {
		cfg := base
		cfg.Topo = "single-link"
		cfg.Shards = shards
		got, err := RunP2P(cfg)
		if err != nil {
			t.Fatalf("single-link shards=%d: %v", shards, err)
		}
		if got.FabricMessages != def.FabricMessages {
			t.Errorf("shards=%d: fabric messages %d != default %d", shards, got.FabricMessages, def.FabricMessages)
		}
		for i := range def.IterTimes {
			if def.IterTimes[i] != got.IterTimes[i] || def.LastLatency[i] != got.LastLatency[i] {
				t.Errorf("shards=%d iter %d: (%v, %v) != default (%v, %v)", shards, i,
					got.IterTimes[i], got.LastLatency[i], def.IterTimes[i], def.LastLatency[i])
			}
		}
	}
}

// TestShardedSweepWindowCeiling is the skip-ahead regression gate: a small
// Sweep3D wavefront at two shards must reproduce the serial per-iteration
// times and finish in at most 40 fleet dispatch windows. Skip-ahead
// currently needs 5; the retired fixed-λ window march paid one window per
// hop (276 here), so the ceiling leaves headroom without admitting a
// regression toward it.
func TestShardedSweepWindowCeiling(t *testing.T) {
	const windowCeiling = 40
	base := SweepConfig{
		GridX:    8,
		GridY:    4,
		Threads:  4,
		Bytes:    16 << 10,
		Compute:  20 * time.Microsecond,
		NoisePct: 5,
		Warmup:   1,
		Iters:    2,
		Opts:     core.Options{Strategy: core.StrategyPLogGP},
	}
	serial, err := RunSweep(base)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	cfg := base
	cfg.Shards = 2
	sharded, err := RunSweep(cfg)
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if len(serial.IterTimes) != len(sharded.IterTimes) {
		t.Fatalf("iteration counts differ: serial %d sharded %d", len(serial.IterTimes), len(sharded.IterTimes))
	}
	for i := range serial.IterTimes {
		if serial.IterTimes[i] != sharded.IterTimes[i] {
			t.Errorf("iter %d: serial %v != sharded %v", i, serial.IterTimes[i], sharded.IterTimes[i])
		}
	}
	st := sharded.ShardStats
	if st == nil {
		t.Fatal("sharded run reported no shard stats")
	}
	if st.Windows > windowCeiling {
		t.Errorf("executed %d dispatch windows, above the ceiling of %d", st.Windows, windowCeiling)
	}
	t.Logf("%d windows, %d tmin hops, %d cross-shard posts", st.Windows, st.TminHops, st.CrossPosts)
}
