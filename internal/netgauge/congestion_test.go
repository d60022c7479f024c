package netgauge

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
)

// TestIncastVsPermutationSpread is the acceptance check for the
// congestion model: on a 2-level fat-tree, a 16:1 incast must complete at
// least 2x slower than the uncongested permutation pattern (same per-flow
// payload), and the incast must saturate the victim's down link while the
// permutation leaves every link far below it.
func TestIncastVsPermutationSpread(t *testing.T) {
	topo, err := fabric.NewFatTree(fabric.FatTreeConfig{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 256 << 10
	perm, err := Congestion(CongestionConfig{Topo: topo, Pattern: "permutation", Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	incast, err := Congestion(CongestionConfig{Topo: topo, Pattern: "incast:16", Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	if perm.Flows != topo.Hosts() || incast.Flows != 16 {
		t.Fatalf("flow counts: permutation %d, incast %d", perm.Flows, incast.Flows)
	}
	if incast.Completion < 2*perm.Completion {
		t.Errorf("16:1 incast completion %v not >= 2x permutation %v", incast.Completion, perm.Completion)
	}
	if incast.QueueP99 == 0 || incast.MaxLinkUtilization < 0.5 {
		t.Errorf("incast shows no contention: p99 queue %v, max util %.2f on %s",
			incast.QueueP99, incast.MaxLinkUtilization, incast.MaxLink)
	}
	if perm.MaxLinkUtilization >= incast.MaxLinkUtilization {
		t.Errorf("permutation max util %.2f (on %s) not below incast %.2f (on %s)",
			perm.MaxLinkUtilization, perm.MaxLink, incast.MaxLinkUtilization, incast.MaxLink)
	}
}

// TestCongestionDeterministicAcrossShards pins the canonical-order
// discipline end to end: every pattern must produce identical reports
// under any shard and worker count, on fat-tree and dragonfly alike. The
// k=8 case is the incast/permutation pair of
// TestIncastVsPermutationSpread, so the contended run is pinned too.
func TestCongestionDeterministicAcrossShards(t *testing.T) {
	ft4, err := fabric.NewFatTree(fabric.FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	df, err := fabric.NewDragonfly(fabric.DragonflyConfig{Groups: 4, Routers: 2, HostsPer: 1})
	if err != nil {
		t.Fatal(err)
	}
	ft8, err := fabric.NewFatTree(fabric.FatTreeConfig{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	small := []string{"incast:4", "permutation", "bisection"}
	allLayouts := [][2]int{{2, 1}, {2, 2}, {4, 1}, {4, 2}, {8, 1}, {8, 2}}
	cases := []struct {
		topo     *fabric.Topology
		patterns []string
		bytes    int
		layouts  [][2]int // (shards, workers)
	}{
		{ft4, small, 128 << 10, allLayouts},
		{df, small, 128 << 10, allLayouts},
		{ft8, []string{"incast:16", "permutation"}, 256 << 10, [][2]int{{2, 1}, {4, 2}, {8, 2}}},
	}
	for _, c := range cases {
		topo := c.topo
		for _, pattern := range c.patterns {
			base, err := Congestion(CongestionConfig{Topo: topo, Pattern: pattern, Bytes: c.bytes})
			if err != nil {
				t.Fatalf("%s/%s serial: %v", topo.Name(), pattern, err)
			}
			for _, layout := range c.layouts {
				shards, workers := layout[0], layout[1]
				got, err := Congestion(CongestionConfig{
					Topo: topo, Pattern: pattern, Bytes: c.bytes,
					Shards: shards, Workers: workers,
				})
				if err != nil {
					t.Fatalf("%s/%s shards=%d: %v", topo.Name(), pattern, shards, err)
				}
				if got.Completion != base.Completion {
					t.Errorf("%s/%s shards=%d workers=%d completion %v != serial %v",
						topo.Name(), pattern, shards, workers, got.Completion, base.Completion)
				}
				if got.QueueP99 != base.QueueP99 || got.MaxLinkUtilization != base.MaxLinkUtilization {
					t.Errorf("%s/%s shards=%d workers=%d link stats diverge from serial",
						topo.Name(), pattern, shards, workers)
				}
				for i, l := range got.Links {
					if b := base.Links[i]; l != b {
						t.Errorf("%s/%s shards=%d link %s diverges: %+v vs %+v",
							topo.Name(), pattern, shards, l.Name, l, b)
					}
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s/%s shards=%d workers=%d report diverges from serial",
						topo.Name(), pattern, shards, workers)
				}
			}
		}
	}
}

// TestCongestionRejectsFlatTopology pins the graph-only contract.
func TestCongestionRejectsFlatTopology(t *testing.T) {
	if _, err := Congestion(CongestionConfig{Topo: fabric.SingleLink(), Pattern: "incast:2"}); err == nil {
		t.Fatal("flat topology accepted")
	}
	topo, _ := fabric.NewFatTree(fabric.FatTreeConfig{K: 4})
	if _, err := Congestion(CongestionConfig{Topo: topo, Pattern: "ring"}); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}
