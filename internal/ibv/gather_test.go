package ibv

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// The gather list is consumed at post, as an HCA copies the descriptors
// into the WQE: rewriting the caller's SGE slice right after PostSend
// returns must not change what lands remotely. (The verbs provider reuses
// one SGE scratch slice per endpoint, so a device that kept a reference
// to wr.SGList would deliver the next post's ranges.)
func TestWriteImmConsumesGatherListAtPost(t *testing.T) {
	p := newPair(t, 8192)
	fill(p.sendBuf, 5)
	if err := p.recvQP.PostRecv(RecvWR{WRID: 8}); err != nil {
		t.Fatal(err)
	}
	sgl := []SGE{p.sendMR.SGEFor(100, 1000), p.sendMR.SGEFor(3000, 500)}
	want := append(append([]byte(nil), p.sendBuf[100:1100]...), p.sendBuf[3000:3500]...)
	if err := p.sendQP.PostSend(SendWR{
		WRID:       1,
		Opcode:     OpRDMAWriteImm,
		SGList:     sgl,
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
		Imm:        77,
		Signaled:   true,
	}); err != nil {
		t.Fatal(err)
	}
	sgl[0] = p.sendMR.SGEFor(5000, 1000)
	sgl[1] = p.sendMR.SGEFor(7000, 500)
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.recvBuf[:1500], want) {
		t.Fatal("remote received the rewritten gather list's bytes, not the posted ones")
	}
	var wcs [2]WC
	if n := p.recvCQ.Poll(wcs[:]); n != 1 || wcs[0].ByteLen != 1500 || wcs[0].Imm != 77 {
		t.Fatalf("recv completions: n=%d wc=%+v", n, wcs[0])
	}
	if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].Status != StatusSuccess || wcs[0].ByteLen != 1500 {
		t.Fatalf("send completions: n=%d wc=%+v", n, wcs[0])
	}
}

// A non-inline write has one payload copy, made at delivery straight from
// the source region: bytes changed before delivery are the bytes that
// land. (Changing them is the caller's error — the source belongs to the
// WR until its completion — but it is how the single copy shows.)
func TestWriteReadsSourceAtDelivery(t *testing.T) {
	p := newPair(t, 4096)
	fill(p.sendBuf, 1)
	if err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 4096)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
	}); err != nil {
		t.Fatal(err)
	}
	fill(p.sendBuf, 9)
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.recvBuf, p.sendBuf) {
		t.Fatal("write did not read its source at delivery")
	}
}

// An inline write's payload travels in the doorbell: the source buffer is
// reusable as soon as PostSend returns.
func TestInlineWriteCopiesSourceAtPost(t *testing.T) {
	p := newPair(t, 1024)
	fill(p.sendBuf, 3)
	want := append([]byte(nil), p.sendBuf[:128]...)
	if err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 128)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
		Inline:     true,
		Signaled:   true,
	}); err != nil {
		t.Fatal(err)
	}
	fill(p.sendBuf, 200)
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.recvBuf[:128], want) {
		t.Fatal("inline write delivered the overwritten source")
	}
}

// BenchmarkPostDeliverPoll is the verbs write path end to end on one QP
// pair: post an RDMA write with immediate, run the engine until the
// payload lands and both completions are queued, and poll them. The one
// 32 B allocation per op is the receive WR's: the receive queue pops from
// the front, so each repost regrows it.
func BenchmarkPostDeliverPoll(b *testing.B) {
	for _, size := range []int{16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			e := sim.NewEngine()
			p := newPairOn(b, e, fabric.New(e, fabric.DefaultConfig()), size, QPConfig{})
			wr := SendWR{
				Opcode:     OpRDMAWriteImm,
				SGList:     []SGE{p.sendMR.SGEFor(0, size)},
				RemoteAddr: p.recvMR.Addr(),
				RKey:       p.recvMR.RKey(),
				Signaled:   true,
			}
			var wcs [1]WC
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.recvQP.PostRecv(RecvWR{WRID: uint64(i)}); err != nil {
					b.Fatal(err)
				}
				if err := p.sendQP.PostSend(wr); err != nil {
					b.Fatal(err)
				}
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
				if p.recvCQ.Poll(wcs[:]) != 1 || p.sendCQ.Poll(wcs[:]) != 1 || wcs[0].Status != StatusSuccess {
					b.Fatal("missing completion")
				}
			}
		})
	}
}
