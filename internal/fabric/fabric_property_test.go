package fabric

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// TestConservationProperty: for any set of message sizes spread over any
// number of flows, every byte injected is eventually delivered, and total
// time is at least the wire serialization bound.
func TestConservationProperty(t *testing.T) {
	f := func(sizesRaw []uint16, flowsRaw uint8) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		if len(sizesRaw) > 24 {
			sizesRaw = sizesRaw[:24]
		}
		nFlows := int(flowsRaw%4) + 1
		e := sim.NewEngine()
		fab := New(e, DefaultConfig())
		a, b := fab.NewPort("a"), fab.NewPort("b")
		flows := make([]*Flow, nFlows)
		for i := range flows {
			flows[i] = fab.NewFlow(a, b)
		}
		totalBytes := 0
		delivered := 0
		for i, sz := range sizesRaw {
			n := int(sz)
			totalBytes += n
			flows[i%nFlows].Send(Message{
				Bytes:     n,
				OnDeliver: func(sim.Time) { delivered++ },
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if delivered != len(sizesRaw) {
			return false
		}
		if b.BytesReceived() != int64(totalBytes) {
			return false
		}
		// Lower bound: payload bytes over the raw link rate.
		minTime := time.Duration(float64(totalBytes) * fab.Config().LinkByteTime)
		return e.Now().Duration() >= minTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestFlowFIFOProperty: messages on one flow always deliver in post order,
// whatever their sizes.
func TestFlowFIFOProperty(t *testing.T) {
	f := func(sizesRaw []uint16) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		if len(sizesRaw) > 16 {
			sizesRaw = sizesRaw[:16]
		}
		e := sim.NewEngine()
		fab := New(e, DefaultConfig())
		fl := fab.NewFlow(fab.NewPort("a"), fab.NewPort("b"))
		var order []int
		for i, sz := range sizesRaw {
			i := i
			fl.Send(Message{Bytes: int(sz), OnDeliver: func(sim.Time) { order = append(order, i) }})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return len(order) == len(sizesRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestBandwidthNeverExceedsLink: aggregate goodput through one egress port
// can never beat the configured link rate, regardless of flow fan-out.
func TestBandwidthNeverExceedsLink(t *testing.T) {
	f := func(flowsRaw, msgsRaw uint8) bool {
		nFlows := int(flowsRaw%8) + 1
		nMsgs := int(msgsRaw%8) + 1
		const size = 1 << 20
		e := sim.NewEngine()
		fab := New(e, DefaultConfig())
		a, b := fab.NewPort("a"), fab.NewPort("b")
		var last sim.Time
		for i := 0; i < nFlows; i++ {
			fl := fab.NewFlow(a, b)
			for j := 0; j < nMsgs; j++ {
				fl.Send(Message{Bytes: size, OnDeliver: func(at sim.Time) {
					if at > last {
						last = at
					}
				}})
			}
		}
		if err := e.Run(); err != nil {
			return false
		}
		gbps := float64(nFlows*nMsgs*size) / last.Duration().Seconds()
		return gbps <= fab.Config().LinkBandwidth()*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPairLookaheadFloorProperty: for every valid generated two-level
// topology — random rack size, cross-rack extra, and perturbed base
// latencies — the per-pair lookahead of any port pair is at least the
// global floor, symmetric, and exactly the floor within a rack. The
// shard runtime depends on this invariant: SetLookaheadMatrix rejects
// entries below the floor, and windows widened per pair are only sound
// if every pair bound really dominates the scalar one.
func TestPairLookaheadFloorProperty(t *testing.T) {
	f := func(rackRaw uint8, extraRaw uint16, wireRaw, ackRaw, ctrlRaw uint16, aRaw, bRaw uint8) bool {
		cfg := DefaultConfig()
		rack := int(rackRaw % 9) // 0 (one rack) .. 8
		cfg.Topo = TwoLevel(rack, time.Duration(extraRaw%3000)*time.Nanosecond)
		cfg.WireLatency = time.Duration(wireRaw%5000+1) * time.Nanosecond
		cfg.AckLatency = time.Duration(ackRaw%5000+1) * time.Nanosecond
		cfg.CtrlLatency = time.Duration(ctrlRaw%5000+1) * time.Nanosecond
		if err := cfg.Validate(); err != nil {
			// Only valid topologies make claims.
			return true
		}
		floor := cfg.Lookahead()
		a, b := int(aRaw%64), int(bRaw%64)
		pair := cfg.PairLookahead(a, b)
		if pair < floor {
			return false
		}
		if pair != cfg.PairLookahead(b, a) {
			return false
		}
		if rack > 0 && a/rack == b/rack && pair != floor {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
