package cluster

import (
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func TestNiagaraConfigShape(t *testing.T) {
	cfg := NiagaraConfig(64)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 64 || cfg.CoresPerNode != 40 {
		t.Fatalf("config = %+v", cfg)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 0, CoresPerNode: 1, Fabric: fabric.DefaultConfig()},
		{Nodes: 1, CoresPerNode: 0, Fabric: fabric.DefaultConfig()},
		{Nodes: 1, CoresPerNode: 1}, // zero fabric config
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestNewBuildsNodes(t *testing.T) {
	c := New(NiagaraConfig(3))
	if len(c.Nodes) != 3 {
		t.Fatalf("built %d nodes", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
		if n.CPU.Servers() != 40 {
			t.Errorf("node %d has %d cores", i, n.CPU.Servers())
		}
		if n.HCA == nil {
			t.Errorf("node %d missing HCA", i)
		}
	}
	if c.Config().Nodes != 3 {
		t.Errorf("Config() = %+v", c.Config())
	}
}

func TestComputeOversubscription(t *testing.T) {
	// 80 threads of 1 ms on a 40-core node take 2 ms — the paper's
	// 128-partition oversubscription effect in miniature.
	c := New(NiagaraConfig(1))
	node := c.Nodes[0]
	var last sim.Time
	for i := 0; i < 80; i++ {
		c.Engine.Spawn("t", func(p *sim.Proc) {
			node.Compute(p, time.Millisecond)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if last != sim.Time(2*time.Millisecond) {
		t.Fatalf("80 threads finished at %v, want 2ms", last)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{})
}

func TestQuantumTimeslicing(t *testing.T) {
	// 80 threads of 10 ms on 40 cores with a 1 ms quantum: all threads
	// interleave and finish within one quantum of 20 ms, instead of two
	// 10 ms waves.
	cfg := NiagaraConfig(1)
	c := New(cfg)
	node := c.Nodes[0]
	var first, last sim.Time
	first = sim.Time(1 << 62)
	for i := 0; i < 80; i++ {
		c.Engine.Spawn("t", func(p *sim.Proc) {
			node.Compute(p, 10*time.Millisecond)
			if p.Now() < first {
				first = p.Now()
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if last != sim.Time(20*time.Millisecond) {
		t.Fatalf("last finish %v, want 20ms (2x stretch)", last)
	}
	if spread := last.Sub(first); spread > cfg.Quantum {
		t.Fatalf("finish spread %v exceeds one quantum %v (wave scheduling?)", spread, cfg.Quantum)
	}
}

func TestZeroQuantumRunsToCompletion(t *testing.T) {
	cfg := NiagaraConfig(1)
	cfg.Quantum = 0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	c := New(cfg)
	node := c.Nodes[0]
	var ends []sim.Time
	for i := 0; i < 80; i++ {
		c.Engine.Spawn("t", func(p *sim.Proc) {
			node.Compute(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := c.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	// Run-to-completion: two distinct waves at 10ms and 20ms.
	if ends[0] != sim.Time(10*time.Millisecond) || ends[79] != sim.Time(20*time.Millisecond) {
		t.Fatalf("waves = %v .. %v", ends[0], ends[79])
	}
}

func TestNegativeQuantumRejected(t *testing.T) {
	cfg := NiagaraConfig(1)
	cfg.Quantum = -time.Second
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative quantum accepted")
	}
}

// TestShardLookaheadMatrixRackTopology pins the shard-pair lookahead
// derivation from the rack topology: shard pairs whose contiguous node
// slabs cover disjoint rack ranges interact only across racks and widen
// by the cross-rack extra; pairs sharing a rack keep the global floor;
// and a single-link fabric keeps the floor everywhere.
func TestShardLookaheadMatrixRackTopology(t *testing.T) {
	cfg := NiagaraConfig(8)
	cfg.Shards = 4
	la := cfg.Fabric.Lookahead()

	// Single-link fabric: the uniform matrix, scalar floor everywhere.
	c := New(cfg)
	set := c.ShardSet()
	if set == nil {
		t.Fatal("sharded cluster returned nil ShardSet")
	}
	if got := set.PairLookahead(0, 3); got != la {
		t.Fatalf("flat fabric pair lookahead = %v, want floor %v", got, la)
	}

	// Two nodes per rack, one rack per shard: every shard pair is
	// rack-disjoint and widens.
	extra := 750 * time.Nanosecond
	cfg.Fabric.Topo = fabric.TwoLevel(2, extra)
	set = New(cfg).ShardSet()
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			want := la
			if s != d {
				want = la + extra
			}
			if got := set.PairLookahead(s, d); got != want {
				t.Errorf("rack-per-shard λ[%d][%d] = %v, want %v", s, d, got, want)
			}
		}
	}

	// Racks of 3 straddle shard boundaries: shards 0 (nodes 0-1, rack 0)
	// and 1 (nodes 2-3, racks 0-1) overlap in rack 0 and keep the floor,
	// while shards 0 and 3 (nodes 6-7, rack 2) are disjoint and widen.
	cfg.Fabric.Topo = fabric.TwoLevel(3, extra)
	set = New(cfg).ShardSet()
	if got := set.PairLookahead(0, 1); got != la {
		t.Errorf("overlapping racks λ[0][1] = %v, want floor %v", got, la)
	}
	if got := set.PairLookahead(0, 3); got != la+extra {
		t.Errorf("disjoint racks λ[0][3] = %v, want %v", got, la+extra)
	}
}

// TestRackTopologyShardedMatchesSerial is the cluster-level differential
// for the per-pair path: a rack topology (which both stretches cross-rack
// interactions in the cost model and hands the shard runtime a non-uniform
// lookahead matrix) must leave sharded timing byte-identical to serial.
func TestRackTopologyShardedMatchesSerial(t *testing.T) {
	run := func(shards int) []sim.Time {
		cfg := NiagaraConfig(8)
		cfg.CoresPerNode = 2
		cfg.Fabric.Topo = fabric.TwoLevel(2, 750*time.Nanosecond)
		cfg.Shards = shards
		c := New(cfg)
		ends := make([]sim.Time, cfg.Nodes)
		for i, n := range c.Nodes {
			i, n := i, n
			n.Engine.Spawn("load", func(p *sim.Proc) {
				// Compute, ping the next node's port via the control
				// plane, compute again on reply.
				n.Compute(p, 5*time.Microsecond)
				ends[i] = p.Now()
			})
		}
		// Cross-node traffic: every node bursts to its neighbor two racks
		// over so flows cross both rack and shard boundaries.
		fab := c.Fabric
		ports := make([]*fabric.Port, cfg.Nodes)
		for i := range ports {
			ports[i] = c.Nodes[i].HCA.Port()
		}
		// Each destination receives exactly one message, so the flag row is
		// written only by its own node's engine — race-free under sharding.
		delivered := make([]bool, cfg.Nodes)
		for i := range ports {
			dst := (i + 4) % cfg.Nodes
			fl := fab.NewFlow(ports[i], ports[dst])
			fl.Send(fabric.Message{Bytes: 8192, OnDeliver: func(at sim.Time) {
				delivered[dst] = true
			}})
		}
		if err := c.Run(0); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for dst, ok := range delivered {
			if !ok {
				t.Fatalf("shards=%d: no delivery to node %d", shards, dst)
			}
		}
		return ends
	}
	want := run(1)
	for _, shards := range []int{2, 4} {
		got := run(shards)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: node %d finished at %v, serial at %v", shards, i, got[i], want[i])
			}
		}
	}
}
