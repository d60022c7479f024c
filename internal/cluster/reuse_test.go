package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/ibv"
	"repro/internal/sim"
)

// TestSourceReuseAfterCompletionShardedMatchesSerial pins the rule that
// makes the single-copy RDMA write shard-safe: a write reads its source
// bytes at delivery, on the destination's shard, and the sender may touch
// them again only after its completion, which the fabric schedules at
// least one pair lookahead after the delivery. Every node streams
// write-with-immediate WRs to a node on the other shard through two
// source slots, and rewrites a slot with the next round's pattern the
// instant it polls that slot's completion — while the other slot's write
// may be in flight. Receivers check every arrival against the pattern of
// its round and fold bytes and arrival times into a digest, which must
// match the serial run. Under -race this also proves that no delivery
// reads a slot in host time while its sender rewrites it.
func TestSourceReuseAfterCompletionShardedMatchesSerial(t *testing.T) {
	const nodes, rounds, size, slots = 4, 32, 4096, 2
	pattern := func(b []byte, node, round int) {
		for k := range b {
			b[k] = byte(node*31 + round*7 + k)
		}
	}
	run := func(shards int) uint64 {
		cfg := NiagaraConfig(nodes)
		cfg.Shards = shards
		c := New(cfg)
		// Each receiver writes only its own slot, from its own engine.
		digests := make([]uint64, nodes)
		for i := 0; i < nodes; i++ {
			i, src, dst := i, c.Nodes[i], c.Nodes[(i+nodes/2)%nodes]
			spd, dpd := src.HCA.Open().AllocPD(), dst.HCA.Open().AllocPD()
			sendBuf := make([]byte, slots*size)
			recvBuf := make([]byte, rounds*size)
			smr, err := spd.RegMR(sendBuf)
			if err != nil {
				t.Fatal(err)
			}
			dmr, err := dpd.RegMR(recvBuf)
			if err != nil {
				t.Fatal(err)
			}
			sendCQ, recvCQ := src.HCA.Open().CreateCQ(64), dst.HCA.Open().CreateCQ(rounds)
			sqp, err := spd.CreateQP(ibv.QPConfig{SendCQ: sendCQ, RecvCQ: src.HCA.Open().CreateCQ(1)})
			if err != nil {
				t.Fatal(err)
			}
			rqp, err := dpd.CreateQP(ibv.QPConfig{SendCQ: dst.HCA.Open().CreateCQ(1), RecvCQ: recvCQ})
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []func() error{
				sqp.ToInit, rqp.ToInit,
				func() error { return sqp.ToRTR(rqp) }, func() error { return rqp.ToRTR(sqp) },
				sqp.ToRTS, rqp.ToRTS,
			} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < rounds; r++ {
				if err := rqp.PostRecv(ibv.RecvWR{WRID: uint64(r)}); err != nil {
					t.Fatal(err)
				}
			}

			post := func(round int) {
				slot := round % slots
				pattern(sendBuf[slot*size:(slot+1)*size], i, round)
				if err := sqp.PostSend(ibv.SendWR{
					WRID:       uint64(round),
					Opcode:     ibv.OpRDMAWriteImm,
					SGList:     []ibv.SGE{smr.SGEFor(slot*size, size)},
					RemoteAddr: dmr.Addr() + uint64(round*size),
					RKey:       dmr.RKey(),
					Imm:        uint32(round),
					Signaled:   true,
				}); err != nil {
					t.Errorf("node %d round %d: %v", i, round, err)
				}
			}
			src.Engine.Spawn("writer", func(p *sim.Proc) {
				for r := 0; r < slots; r++ {
					post(r)
				}
				var wcs [4]ibv.WC
				for done := 0; done < rounds; {
					sendCQ.WaitNotEmpty(p)
					n := sendCQ.Poll(wcs[:])
					for _, wc := range wcs[:n] {
						if wc.Status != ibv.StatusSuccess {
							t.Errorf("node %d: send completion %+v", i, wc)
						}
						if next := int(wc.WRID) + slots; next < rounds {
							post(next)
						}
					}
					done += n
				}
			})
			dst.Engine.Spawn("reader", func(p *sim.Proc) {
				h := fnv.New64a()
				want := make([]byte, size)
				var wcs [4]ibv.WC
				for got := 0; got < rounds; {
					recvCQ.WaitNotEmpty(p)
					n := recvCQ.Poll(wcs[:])
					for _, wc := range wcs[:n] {
						r := int(wc.Imm)
						data := recvBuf[r*size : (r+1)*size]
						pattern(want, i, r)
						if wc.Status != ibv.StatusSuccess || wc.ByteLen != size || string(data) != string(want) {
							t.Errorf("node %d round %d: arrival %+v does not carry its round's pattern", i, r, wc)
						}
						h.Write(data)
						h.Write(binary.LittleEndian.AppendUint64(nil, uint64(p.Now())))
					}
					got += n
				}
				digests[(i+nodes/2)%nodes] = h.Sum64()
			})
		}
		if err := c.Run(0); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		h := fnv.New64a()
		for _, d := range digests {
			h.Write(binary.LittleEndian.AppendUint64(nil, d))
		}
		return h.Sum64()
	}
	want := run(1)
	if got := run(2); got != want {
		t.Fatalf("2 shards: digest %#x, serial %#x", got, want)
	}
}
