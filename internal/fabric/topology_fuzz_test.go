package fabric_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
)

// FuzzParseTopology drives the -topo grammar with arbitrary specs. Any
// spec ParseTopology accepts (up to 256 hosts, to keep each input cheap)
// must give a fabric config that validates, and a two-shard cluster over
// it must either fail Validate with an error or build without panicking.
// The seeds are the README topology table's specs plus the negative
// two-level extra that once passed parsing and panicked at two shards.
//
//	go test -run XXX -fuzz FuzzParseTopology -fuzztime 30s ./internal/fabric/
func FuzzParseTopology(f *testing.F) {
	for _, spec := range []string{
		"single-link",
		"two-level:rack=8",
		"two-level:rack=8,extra=750ns",
		"fat-tree:k=8",
		"fat-tree:k=8,cable=500ns,down=1µs,G=0.085",
		"dragonfly:groups=9,routers=4,hosts=2",
		"dragonfly:groups=9,routers=4,hosts=2,cable=500ns,global=2500ns,down=1us",
		"two-level:rack=2,extra=-500ns",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := fabric.ParseTopology(spec)
		if err != nil || topo.Hosts() > 256 {
			return
		}
		fc := fabric.DefaultConfig()
		fc.Topo = topo
		if err := fc.Validate(); err != nil {
			t.Fatalf("ParseTopology(%q) returned a topology Validate rejects: %v", spec, err)
		}
		nodes := topo.Hosts()
		if nodes == 0 {
			nodes = 16 // flat topologies accept any port count
		}
		cfg := cluster.NiagaraConfig(nodes)
		cfg.Fabric = fc
		cfg.Shards = 2
		if cfg.Validate() != nil {
			return
		}
		cluster.New(cfg)
	})
}
