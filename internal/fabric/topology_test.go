package fabric

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec string
		name string
	}{
		{"", "single-link"},
		{"single-link", "single-link"},
		{"two-level:rack=4", "two-level:rack=4,extra=750ns"},
		{"two-level:rack=4,extra=2us", "two-level:rack=4,extra=2µs"},
		{"fat-tree:k=8", "fat-tree:k=8"},
		{"fat-tree:k=4,cable=1us,down=2us,G=0.1", "fat-tree:k=4"},
		{"dragonfly:groups=3,routers=2,hosts=1", "dragonfly:groups=3,routers=2,hosts=1"},
	}
	for _, c := range cases {
		topo, err := ParseTopology(c.spec)
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", c.spec, err)
			continue
		}
		if topo.Name() != c.name {
			t.Errorf("ParseTopology(%q).Name() = %q, want %q", c.spec, topo.Name(), c.name)
		}
	}
	bad := []string{
		"mesh:k=3",
		"fat-tree:k=3",          // odd radix
		"fat-tree:k=4,bogus=1",  // unknown key
		"fat-tree:k=x",          // bad int
		"two-level:rack=0",      // no rack size
		"dragonfly:groups=1",    // single group
		"fat-tree:k=4,cable=5",  // missing duration unit
		"dragonfly:groups=3,routers=2,hosts=1,global=100ns", // < 2*cable
		"two-level:rack=2,extra=-500ns",                     // cross-rack faster than in-rack
		"fat-tree:k=1000",                                   // beyond the link limit
		"fat-tree:k=4,cable=2h",                             // beyond the latency limit
	}
	for _, spec := range bad {
		if _, err := ParseTopology(spec); err == nil {
			t.Errorf("ParseTopology(%q) accepted", spec)
		}
	}
}

// TestValidateRejectsNegativeRackExtra: a two-level topology whose
// cross-rack extra is negative would make cross-rack traffic faster than
// in-rack traffic and push pair lookaheads below the global floor, which
// the shard runtime rejects with a panic. Validate must catch it first.
func TestValidateRejectsNegativeRackExtra(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topo = TwoLevel(2, -500*time.Nanosecond)
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative two-level extra accepted")
	}
	cfg.Topo = TwoLevel(2, 0)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero two-level extra rejected: %v", err)
	}
}

// runPattern drives a small many-to-one plus pairwise pattern and returns
// every delivery and ack timestamp, in a traffic-determined order.
func runPattern(t *testing.T, cfg Config) []sim.Time {
	t.Helper()
	e := sim.NewEngine()
	f := New(e, cfg)
	const n = 6
	ports := make([]*Port, n)
	for i := range ports {
		ports[i] = f.NewPort("p")
	}
	var stamps []sim.Time
	for i := 1; i < n; i++ {
		fl := f.NewFlowID(ports[i], ports[0], uint64(i))
		fl.Send(Message{
			Bytes:     100 << uint(i),
			OnDeliver: func(at sim.Time) { stamps = append(stamps, at) },
			OnAck:     func(at sim.Time) { stamps = append(stamps, at) },
		})
	}
	fl := f.NewFlowID(ports[0], ports[n-1], 99)
	fl.Send(Message{
		Bytes:     200000, // several bursts
		OnDeliver: func(at sim.Time) { stamps = append(stamps, at) },
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return stamps
}

// TestSingleLinkTopologyByteIdentical is the core differential: a fabric
// built with Topo=SingleLink() must produce byte-identical timestamps to
// one built with no topology at all.
func TestSingleLinkTopologyByteIdentical(t *testing.T) {
	base := runPattern(t, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Topo = SingleLink()
	withTopo := runPattern(t, cfg)
	if len(base) != len(withTopo) {
		t.Fatalf("event counts differ: %d vs %d", len(base), len(withTopo))
	}
	for i := range base {
		if base[i] != withTopo[i] {
			t.Fatalf("timestamp %d differs: %v vs %v", i, base[i], withTopo[i])
		}
	}
}

// randomGraphTopoConfig draws a fabric config with a random fat-tree or
// dragonfly topology and random (valid) latencies.
func randomGraphTopoConfig(r *rand.Rand) (Config, error) {
	cfg := DefaultConfig()
	cfg.WireLatency = time.Duration(1 + r.Intn(3000)) * time.Nanosecond
	cable := time.Duration(1 + r.Intn(2000)) * time.Nanosecond
	down := time.Duration(1 + r.Intn(3000)) * time.Nanosecond
	var err error
	if r.Intn(2) == 0 {
		cfg.Topo, err = NewFatTree(FatTreeConfig{K: 2 * (1 + r.Intn(4)), Cable: cable, Down: down})
	} else {
		global := 2*cable + time.Duration(r.Intn(5000))*time.Nanosecond
		cfg.Topo, err = NewDragonfly(DragonflyConfig{
			Groups: 2 + r.Intn(4), Routers: 1 + r.Intn(3), HostsPer: 1 + r.Intn(3),
			Cable: cable, Global: global, Down: down,
		})
	}
	return cfg, err
}

// TestPairLatencyProperties checks the topology invariants the shard
// lookahead derivation relies on, over randomly generated fat-tree and
// dragonfly instances: PairLatency is symmetric, dominates the global
// Lookahead floor, and satisfies the triangle inequality.
func TestPairLatencyProperties(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg, err := randomGraphTopoConfig(r)
		if err != nil {
			t.Logf("seed %d: generator error: %v", seed, err)
			return false
		}
		topo := cfg.Topology()
		floor := cfg.Lookahead()
		h := topo.Hosts()
		for trial := 0; trial < 64; trial++ {
			a, b, c := r.Intn(h), r.Intn(h), r.Intn(h)
			ab, ba := topo.PairLatency(a, b), topo.PairLatency(b, a)
			if ab != ba {
				t.Logf("seed %d %s: PairLatency(%d,%d)=%v != PairLatency(%d,%d)=%v",
					seed, topo.Name(), a, b, ab, b, a, ba)
				return false
			}
			if ab < floor {
				t.Logf("seed %d %s: PairLatency(%d,%d)=%v below floor %v",
					seed, topo.Name(), a, b, ab, floor)
				return false
			}
			ac, bc := topo.PairLatency(a, c), topo.PairLatency(b, c)
			if ac > ab+bc {
				t.Logf("seed %d %s: triangle violated: d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
					seed, topo.Name(), a, c, ac, a, b, b, c, ab+bc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRoutesAreValidAndEqualCost walks every generated route and checks
// it is link-connected from the source's switch to the destination host,
// and that its latency sum equals PairExtra — the equal-cost property the
// analytic lookahead derivation assumes for every ECMP candidate.
func TestRoutesAreValidAndEqualCost(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg, err := randomGraphTopoConfig(r)
		if err != nil {
			return false
		}
		topo := cfg.Topology()
		h := topo.Hosts()
		// adjacent switch of each host = From of its down link.
		adj := make([]int, h)
		for i := 0; i < topo.Links(); i++ {
			if l := topo.LinkAt(i); l.To < h {
				adj[l.To] = l.From
			}
		}
		for trial := 0; trial < 64; trial++ {
			src, dst := r.Intn(h), r.Intn(h)
			flowID := r.Uint64() % 64
			route := topo.Route(src, dst, flowID)
			if len(route) == 0 {
				t.Logf("seed %d %s: empty route %d->%d", seed, topo.Name(), src, dst)
				return false
			}
			var sum time.Duration
			at := adj[src]
			for _, id := range route {
				l := topo.LinkAt(id)
				if l.From != at {
					t.Logf("seed %d %s: route %d->%d: link %q starts at node %d, cursor at %d",
						seed, topo.Name(), src, dst, l.Name, l.From, at)
					return false
				}
				at = l.To
				sum += l.Latency
			}
			if at != dst {
				t.Logf("seed %d %s: route %d->%d ends at node %d", seed, topo.Name(), src, dst, at)
				return false
			}
			if sum != topo.PairExtra(src, dst) {
				t.Logf("seed %d %s: route %d->%d (flow %d) latency %v != PairExtra %v",
					seed, topo.Name(), src, dst, flowID, sum, topo.PairExtra(src, dst))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRouteDeterministicAndSpreading pins the ECMP hash: the same flow
// identity always takes the same path, and distinct identities between a
// cross-edge fat-tree pair spread over more than one spine.
func TestRouteDeterministicAndSpreading(t *testing.T) {
	topo, err := NewFatTree(FatTreeConfig{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := 0, topo.Hosts()-1
	spines := map[int]bool{}
	for flowID := uint64(0); flowID < 16; flowID++ {
		r1 := topo.Route(src, dst, flowID)
		r2 := topo.Route(src, dst, flowID)
		if len(r1) != 3 {
			t.Fatalf("cross-edge route length %d, want 3", len(r1))
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("flow %d: route not deterministic: %v vs %v", flowID, r1, r2)
			}
		}
		spines[r1[0]] = true
	}
	if len(spines) < 2 {
		t.Fatalf("16 flow identities all hashed onto one spine path")
	}
}

// TestRoutedSingleFlowLatency pins the routed pipeline's uncontended
// timing: store-and-forward at burst granularity over each hop's
// {latency, byteTime} plus the host injection leg.
func TestRoutedSingleFlowLatency(t *testing.T) {
	topo, err := NewFatTree(FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Topo = topo
	e := sim.NewEngine()
	f := New(e, cfg)
	ports := make([]*Port, topo.Hosts())
	for i := range ports {
		ports[i] = f.NewPort("h")
	}
	src, dst := ports[0], ports[topo.Hosts()-1] // cross-edge: 3-hop route
	fl := f.NewFlowID(src, dst, 7)
	const k = 4096
	var deliveredAt, ackAt sim.Time
	fl.Send(Message{
		Bytes:     k,
		OnDeliver: func(at sim.Time) { deliveredAt = at },
		OnAck:     func(at sim.Time) { ackAt = at },
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	wireBytes := k + (k/cfg.MTU)*cfg.PacketHeader
	tx := time.Duration(float64(wireBytes) * cfg.LinkByteTime)
	cable, down := 500*time.Nanosecond, time.Microsecond
	want := sim.Time(0).
		Add(cfg.WRProcess).
		Add(tx).              // host egress serialization
		Add(cfg.WireLatency). // injection propagation
		Add(tx).Add(cable).   // edge->spine
		Add(tx).Add(cable).   // spine->edge
		Add(tx).Add(down)     // edge->host
	if deliveredAt != want {
		t.Errorf("routed delivery at %v, want %v", deliveredAt, want)
	}
	extra := 2*cable + down
	if wantAck := want.Add(cfg.AckLatency + extra); ackAt != wantAck {
		t.Errorf("routed ack at %v, want %v", ackAt, wantAck)
	}
	// The fabric observed the traffic on exactly the route's links.
	stats := f.LinkStats()
	var carried int
	for _, s := range stats {
		if s.Charges > 0 {
			carried++
			if s.Bytes != int64(wireBytes) {
				t.Errorf("link %q carried %d bytes, want %d", s.Link.Name, s.Bytes, wireBytes)
			}
		}
	}
	if carried != 3 {
		t.Errorf("%d links carried traffic, want 3", carried)
	}
}

// TestIncastContendsOnDownLink drives a 3:1 incast into one fat-tree host
// and checks the shared down link serializes the bursts: the last
// delivery must trail an uncontended single-flow delivery by at least the
// two extra bursts' serialization time, and the down link must report
// queueing delay.
func TestIncastContendsOnDownLink(t *testing.T) {
	topo, err := NewFatTree(FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	run := func(senders int) (sim.Time, []LinkStats) {
		cfg := DefaultConfig()
		cfg.Topo = topo
		e := sim.NewEngine()
		f := New(e, cfg)
		ports := make([]*Port, topo.Hosts())
		for i := range ports {
			ports[i] = f.NewPort("h")
		}
		const k = 65536
		var last sim.Time
		for s := 0; s < senders; s++ {
			fl := f.NewFlowID(ports[s+2], ports[0], uint64(s))
			fl.Send(Message{Bytes: k, OnDeliver: func(at sim.Time) {
				if at > last {
					last = at
				}
			}})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return last, f.LinkStats()
	}
	solo, _ := run(1)
	incast, stats := run(3)
	cfg := DefaultConfig()
	wireBytes := 65536 + (65536/cfg.MTU)*cfg.PacketHeader
	tx := time.Duration(float64(wireBytes) * cfg.LinkByteTime)
	if incast < solo.Add(2*tx) {
		t.Errorf("3:1 incast last delivery %v; want >= solo %v + 2 bursts %v", incast, solo, 2*tx)
	}
	var queued bool
	for _, s := range stats {
		if s.Link.To == 0 && s.MaxQueue > 0 {
			queued = true
			if p99 := s.QueuePercentile(0.99); p99 == 0 {
				t.Errorf("down link reports MaxQueue %v but zero p99", s.MaxQueue)
			}
		}
	}
	if !queued {
		t.Error("incast produced no queueing delay on the victim's down link")
	}
}
