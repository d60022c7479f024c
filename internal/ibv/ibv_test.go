package ibv

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// pair is a fully connected QP pair with registered buffers on both ends.
type pair struct {
	eng            *sim.Engine
	fab            *fabric.Fabric
	sendQP, recvQP *QP
	sendCQ, recvCQ *CQ
	sendMR, recvMR *MR
	sendBuf        []byte
	recvBuf        []byte
	sendPD, recvPD *PD
}

// newPair builds two HCAs, connects one QP pair, and registers bufBytes of
// send and receive memory.
func newPair(t *testing.T, bufBytes int) *pair {
	t.Helper()
	e := sim.NewEngine()
	f := fabric.New(e, fabric.DefaultConfig())
	return newPairOn(t, e, f, bufBytes, QPConfig{})
}

func newPairOn(t testing.TB, e *sim.Engine, f *fabric.Fabric, bufBytes int, cfg QPConfig) *pair {
	t.Helper()
	ha := NewHCA(e, f, "node-a")
	hb := NewHCA(e, f, "node-b")
	pda := ha.Open().AllocPD()
	pdb := hb.Open().AllocPD()

	p := &pair{
		eng: e, fab: f,
		sendCQ: ha.Open().CreateCQ(4096),
		recvCQ: hb.Open().CreateCQ(4096),
		sendPD: pda, recvPD: pdb,
		sendBuf: make([]byte, bufBytes),
		recvBuf: make([]byte, bufBytes),
	}
	var err error
	if p.sendMR, err = pda.RegMR(p.sendBuf); err != nil {
		t.Fatal(err)
	}
	if p.recvMR, err = pdb.RegMR(p.recvBuf); err != nil {
		t.Fatal(err)
	}
	sCfg, rCfg := cfg, cfg
	sCfg.SendCQ, sCfg.RecvCQ = p.sendCQ, ha.Open().CreateCQ(64)
	rCfg.SendCQ, rCfg.RecvCQ = hb.Open().CreateCQ(64), p.recvCQ
	if p.sendQP, err = pda.CreateQP(sCfg); err != nil {
		t.Fatal(err)
	}
	if p.recvQP, err = pdb.CreateQP(rCfg); err != nil {
		t.Fatal(err)
	}
	connect(t, p.sendQP, p.recvQP)
	return p
}

// connect brings both QPs to RTS against each other.
func connect(t testing.TB, a, b *QP) {
	t.Helper()
	for _, qp := range []*QP{a, b} {
		if err := qp.ToInit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.ToRTR(b); err != nil {
		t.Fatal(err)
	}
	if err := b.ToRTR(a); err != nil {
		t.Fatal(err)
	}
	for _, qp := range []*QP{a, b} {
		if err := qp.ToRTS(); err != nil {
			t.Fatal(err)
		}
	}
}

func fill(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i)
	}
}

func TestRDMAWriteWithImmMovesDataAndImmediate(t *testing.T) {
	p := newPair(t, 8192)
	fill(p.sendBuf, 7)

	if err := p.recvQP.PostRecv(RecvWR{WRID: 42}); err != nil {
		t.Fatal(err)
	}
	err := p.sendQP.PostSend(SendWR{
		WRID:       1,
		Opcode:     OpRDMAWriteImm,
		SGList:     []SGE{p.sendMR.SGEFor(0, 8192)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
		Imm:        0xdeadbeef,
		Signaled:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(p.recvBuf, p.sendBuf) {
		t.Fatal("receive buffer does not match send buffer")
	}
	var wcs [4]WC
	if n := p.recvCQ.Poll(wcs[:]); n != 1 {
		t.Fatalf("recv CQ polled %d completions, want 1", n)
	}
	wc := wcs[0]
	if wc.WRID != 42 || wc.Status != StatusSuccess || wc.Opcode != WCRecvRDMAWithImm {
		t.Fatalf("recv WC = %+v", wc)
	}
	if !wc.HasImm || wc.Imm != 0xdeadbeef {
		t.Fatalf("immediate = %#x (has=%v)", wc.Imm, wc.HasImm)
	}
	if wc.ByteLen != 8192 {
		t.Fatalf("ByteLen = %d", wc.ByteLen)
	}
	if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].WRID != 1 || wcs[0].Status != StatusSuccess {
		t.Fatalf("send completion: n=%d wc=%+v", n, wcs[0])
	}
}

func TestRDMAWriteAtOffset(t *testing.T) {
	p := newPair(t, 4096)
	fill(p.sendBuf, 1)
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(100, 200)},
		RemoteAddr: p.recvMR.Addr() + 1000,
		RKey:       p.recvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.recvBuf[1000:1200], p.sendBuf[100:300]) {
		t.Fatal("offset write landed wrong")
	}
	for i, b := range p.recvBuf[:1000] {
		if b != 0 {
			t.Fatalf("byte %d dirtied before target range", i)
		}
	}
	// Plain RDMA write generates no receive completion.
	if p.recvCQ.Len() != 0 {
		t.Fatal("plain RDMA write produced a receive completion")
	}
}

func TestUnsignaledSendProducesNoCompletion(t *testing.T) {
	p := newPair(t, 1024)
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 1024)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
		Signaled:   false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if p.sendCQ.Len() != 0 {
		t.Fatal("unsignaled WR generated a send completion")
	}
}

func TestMultiElementGather(t *testing.T) {
	p := newPair(t, 4096)
	fill(p.sendBuf, 3)
	err := p.sendQP.PostSend(SendWR{
		Opcode: OpRDMAWrite,
		SGList: []SGE{
			p.sendMR.SGEFor(0, 100),
			p.sendMR.SGEFor(2000, 50),
		},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, p.sendBuf[:100]...), p.sendBuf[2000:2050]...)
	if !bytes.Equal(p.recvBuf[:150], want) {
		t.Fatal("gathered payload mismatch")
	}
}

func TestTwoSidedSendRecv(t *testing.T) {
	p := newPair(t, 2048)
	fill(p.sendBuf, 9)
	if err := p.recvQP.PostRecv(RecvWR{WRID: 5, SGList: []SGE{p.recvMR.SGEFor(0, 2048)}}); err != nil {
		t.Fatal(err)
	}
	err := p.sendQP.PostSend(SendWR{
		WRID:     6,
		Opcode:   OpSend,
		SGList:   []SGE{p.sendMR.SGEFor(0, 500)},
		Signaled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.recvBuf[:500], p.sendBuf[:500]) {
		t.Fatal("send/recv payload mismatch")
	}
	var wcs [2]WC
	if n := p.recvCQ.Poll(wcs[:]); n != 1 || wcs[0].Opcode != WCRecv || wcs[0].ByteLen != 500 {
		t.Fatalf("recv completion: n=%d wc=%+v", n, wcs[0])
	}
}

func TestInOrderDeliveryAcrossWRs(t *testing.T) {
	p := newPair(t, 64)
	const n = 10
	for i := 0; i < n; i++ {
		if err := p.recvQP.PostRecv(RecvWR{WRID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		p.sendBuf[0] = byte(i)
		err := p.sendQP.PostSend(SendWR{
			Opcode:     OpRDMAWriteImm,
			SGList:     []SGE{p.sendMR.SGEFor(0, 1)},
			RemoteAddr: p.recvMR.Addr(),
			RKey:       p.recvMR.RKey(),
			Imm:        uint32(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Payload is gathered at post time, so mutating sendBuf between
		// posts must not corrupt earlier messages.
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	wcs := make([]WC, n)
	if got := p.recvCQ.Poll(wcs); got != n {
		t.Fatalf("polled %d, want %d", got, n)
	}
	for i, wc := range wcs {
		if wc.Imm != uint32(i) || wc.WRID != uint64(i) {
			t.Fatalf("completion %d out of order: %+v", i, wc)
		}
	}
}

func TestQPStateMachine(t *testing.T) {
	p := newPair(t, 64)
	// newPair's QPs are already RTS; build a fresh one for transitions.
	cq := p.sendPD.Context().CreateCQ(4)
	qp, err := p.sendPD.CreateQP(QPConfig{SendCQ: cq, RecvCQ: cq})
	if err != nil {
		t.Fatal(err)
	}
	if qp.State() != StateReset {
		t.Fatalf("fresh QP state %v", qp.State())
	}
	// Posting in RESET fails.
	if err := qp.PostRecv(RecvWR{}); !errors.Is(err, ErrBadState) {
		t.Fatalf("PostRecv in RESET: %v", err)
	}
	if err := qp.PostSend(SendWR{SGList: []SGE{{}}}); !errors.Is(err, ErrBadState) {
		t.Fatalf("PostSend in RESET: %v", err)
	}
	// Skipping INIT fails.
	if err := qp.ToRTR(p.recvQP); !errors.Is(err, ErrBadState) {
		t.Fatalf("ToRTR from RESET: %v", err)
	}
	if err := qp.ToRTS(); !errors.Is(err, ErrBadState) {
		t.Fatalf("ToRTS from RESET: %v", err)
	}
	if err := qp.ToInit(); err != nil {
		t.Fatal(err)
	}
	// PostSend still fails in INIT; PostRecv is allowed.
	if err := qp.PostSend(SendWR{SGList: []SGE{{}}}); !errors.Is(err, ErrBadState) {
		t.Fatalf("PostSend in INIT: %v", err)
	}
	if err := qp.ToRTR(nil); err == nil {
		t.Fatal("ToRTR(nil) accepted")
	}
	if err := qp.ToRTR(p.recvQP); err != nil {
		t.Fatal(err)
	}
	if err := qp.ToRTS(); err != nil {
		t.Fatal(err)
	}
	if qp.State() != StateRTS {
		t.Fatalf("state %v after ToRTS", qp.State())
	}
	if err := qp.ToInit(); !errors.Is(err, ErrBadState) {
		t.Fatalf("ToInit from RTS: %v", err)
	}
}

func TestPostSendValidation(t *testing.T) {
	p := newPair(t, 1024)
	base := SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 100)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
	}
	cases := []struct {
		name string
		mut  func(*SendWR)
		want error
	}{
		{"empty sg list", func(w *SendWR) { w.SGList = nil }, ErrEmptySGList},
		{"missing rkey", func(w *SendWR) { w.RKey = 0 }, ErrNoRemote},
		{"missing raddr", func(w *SendWR) { w.RemoteAddr = 0 }, ErrNoRemote},
		{"bad lkey", func(w *SendWR) { w.SGList = []SGE{{Addr: p.sendMR.Addr(), Length: 10, LKey: 0xffff}} }, ErrBadLKey},
		{"sge overrun", func(w *SendWR) { w.SGList = []SGE{p.sendMR.SGEFor(1000, 100)} }, ErrMRBounds},
		{"sge before region", func(w *SendWR) { w.SGList = []SGE{{Addr: p.sendMR.Addr() - 1, Length: 10, LKey: p.sendMR.LKey()}} }, ErrMRBounds},
		{"good then bad lkey", func(w *SendWR) {
			w.SGList = []SGE{p.sendMR.SGEFor(0, 10), {Addr: p.sendMR.Addr(), Length: 10, LKey: 0xffff}}
		}, ErrBadLKey},
		{"good then overrun", func(w *SendWR) { w.SGList = []SGE{p.sendMR.SGEFor(0, 10), p.sendMR.SGEFor(1024, 1)} }, ErrMRBounds},
	}
	for _, c := range cases {
		wr := base
		wr.Signaled = true
		c.mut(&wr)
		if err := p.sendQP.PostSend(wr); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	// Failed posts fail synchronously: no completion on either CQ and
	// nothing on the wire. The recycled send context carries no stale
	// source ranges into the next post.
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if p.sendCQ.Len() != 0 || p.recvCQ.Len() != 0 {
		t.Fatalf("failed posts completed: send CQ %d, recv CQ %d", p.sendCQ.Len(), p.recvCQ.Len())
	}
	if n := p.sendQP.pd.ctx.hca.Port().MessagesSent(); n != 0 {
		t.Fatalf("failed posts put %d messages on the wire", n)
	}
	if p.sendQP.Outstanding() != 0 || p.sendQP.State() != StateRTS {
		t.Fatalf("outstanding %d, state %v after failed posts", p.sendQP.Outstanding(), p.sendQP.State())
	}
	fill(p.sendBuf, 2)
	wr := base
	wr.SGList = []SGE{p.sendMR.SGEFor(500, 100)}
	wr.Signaled = true
	if err := p.sendQP.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.recvBuf[:100], p.sendBuf[500:600]) || p.recvBuf[100] != 0 {
		t.Fatal("post after failed posts delivered the wrong bytes")
	}
	var wcs [1]WC
	if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].Status != StatusSuccess || wcs[0].ByteLen != 100 {
		t.Fatalf("completion after failed posts: n=%d wc=%+v", n, wcs[0])
	}
}

func TestRemoteAccessErrorOnBadRKey(t *testing.T) {
	p := newPair(t, 1024)
	err := p.sendQP.PostSend(SendWR{
		WRID:       9,
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 100)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       0x7777, // no such registration on the responder
		Signaled:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var wcs [2]WC
	if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].Status != StatusRemAccessErr {
		t.Fatalf("sender completion: n=%d wc=%+v", n, wcs[0])
	}
	if p.sendQP.State() != StateErr || p.recvQP.State() != StateErr {
		t.Fatalf("QP states after remote error: %v / %v", p.sendQP.State(), p.recvQP.State())
	}
}

func TestRemoteAccessErrorOnBounds(t *testing.T) {
	p := newPair(t, 1024)
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 1024)},
		RemoteAddr: p.recvMR.Addr() + 512, // write runs past the region
		RKey:       p.recvMR.RKey(),
		Signaled:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var wcs [2]WC
	if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].Status != StatusRemAccessErr {
		t.Fatalf("sender completion: n=%d wc=%+v", n, wcs[0])
	}
}

func TestRNRWhenNoReceivePosted(t *testing.T) {
	p := newPair(t, 1024)
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWriteImm,
		SGList:     []SGE{p.sendMR.SGEFor(0, 100)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var wcs [2]WC
	if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].Status != StatusRNRRetryExceeded {
		t.Fatalf("sender completion: n=%d wc=%+v", n, wcs[0])
	}
	// Data still landed (RDMA write part succeeded before the RNR).
	if p.recvBuf[0] != p.sendBuf[0] {
		t.Fatal("payload missing despite write-before-RNR semantics")
	}
}

func TestReceiveLengthError(t *testing.T) {
	p := newPair(t, 4096)
	if err := p.recvQP.PostRecv(RecvWR{WRID: 3, SGList: []SGE{p.recvMR.SGEFor(0, 10)}}); err != nil {
		t.Fatal(err)
	}
	err := p.sendQP.PostSend(SendWR{
		Opcode: OpSend,
		SGList: []SGE{p.sendMR.SGEFor(0, 100)}, // 100 B into a 10 B buffer
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var wcs [4]WC
	n := p.recvCQ.Poll(wcs[:])
	if n < 1 || wcs[0].Status != StatusLenErr {
		t.Fatalf("receiver completion: n=%d wc=%+v", n, wcs[0])
	}
	if p.recvQP.State() != StateErr {
		t.Fatalf("responder state %v, want ERR", p.recvQP.State())
	}
}

func TestSQFullAndOutstandingWindow(t *testing.T) {
	e := sim.NewEngine()
	f := fabric.New(e, fabric.DefaultConfig())
	p := newPairOn(t, e, f, 1<<20, QPConfig{MaxSendWR: 4, MaxOutstanding: 2})
	post := func() error {
		return p.sendQP.PostSend(SendWR{
			Opcode:     OpRDMAWrite,
			SGList:     []SGE{p.sendMR.SGEFor(0, 1024)},
			RemoteAddr: p.recvMR.Addr(),
			RKey:       p.recvMR.RKey(),
		})
	}
	for i := 0; i < 4; i++ {
		if err := post(); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if p.sendQP.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want window of 2", p.sendQP.Outstanding())
	}
	if err := post(); !errors.Is(err, ErrSQFull) {
		t.Fatalf("5th post: %v, want ErrSQFull", err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if p.sendQP.Outstanding() != 0 {
		t.Fatalf("outstanding after drain = %d", p.sendQP.Outstanding())
	}
	// Queue drained: posting works again.
	if err := post(); err != nil {
		t.Fatalf("post after drain: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRQFull(t *testing.T) {
	e := sim.NewEngine()
	f := fabric.New(e, fabric.DefaultConfig())
	p := newPairOn(t, e, f, 64, QPConfig{MaxRecvWR: 2})
	for i := 0; i < 2; i++ {
		if err := p.recvQP.PostRecv(RecvWR{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.recvQP.PostRecv(RecvWR{}); !errors.Is(err, ErrRQFull) {
		t.Fatalf("overfull PostRecv: %v", err)
	}
}

func TestSetErrorFlushesQueues(t *testing.T) {
	p := newPair(t, 1024)
	if err := p.recvQP.PostRecv(RecvWR{WRID: 11}); err != nil {
		t.Fatal(err)
	}
	if err := p.recvQP.PostRecv(RecvWR{WRID: 12}); err != nil {
		t.Fatal(err)
	}
	p.recvQP.SetError()
	var wcs [4]WC
	n := p.recvCQ.Poll(wcs[:])
	if n != 2 {
		t.Fatalf("flushed %d completions, want 2", n)
	}
	for i, wc := range wcs[:2] {
		if wc.Status != StatusWRFlushErr || wc.WRID != uint64(11+i) {
			t.Fatalf("flush WC %d = %+v", i, wc)
		}
	}
	if err := p.recvQP.PostRecv(RecvWR{}); !errors.Is(err, ErrBadState) {
		t.Fatalf("PostRecv after error: %v", err)
	}
}

func TestPostRecvValidatesSGEs(t *testing.T) {
	p := newPair(t, 64)
	err := p.recvQP.PostRecv(RecvWR{SGList: []SGE{{Addr: 1, Length: 10, LKey: 999}}})
	if !errors.Is(err, ErrBadLKey) {
		t.Fatalf("bad lkey recv post: %v", err)
	}
	err = p.recvQP.PostRecv(RecvWR{SGList: []SGE{p.recvMR.SGEFor(60, 10)}})
	if !errors.Is(err, ErrMRBounds) {
		t.Fatalf("out-of-bounds recv post: %v", err)
	}
}

func TestMRDereg(t *testing.T) {
	p := newPair(t, 1024)
	if err := p.recvMR.Dereg(); err != nil {
		t.Fatal(err)
	}
	if err := p.recvMR.Dereg(); !errors.Is(err, ErrDeregistered) {
		t.Fatalf("double dereg: %v", err)
	}
	// RDMA to the deregistered region must fail remotely.
	err := p.sendQP.PostSend(SendWR{
		Opcode:     OpRDMAWrite,
		SGList:     []SGE{p.sendMR.SGEFor(0, 10)},
		RemoteAddr: p.recvMR.Addr(),
		RKey:       p.recvMR.RKey(),
		Signaled:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var wcs [2]WC
	if n := p.sendCQ.Poll(wcs[:]); n != 1 || wcs[0].Status != StatusRemAccessErr {
		t.Fatalf("completion after dereg: n=%d wc=%+v", n, wcs[0])
	}
}

func TestRegMRValidation(t *testing.T) {
	p := newPair(t, 64)
	if _, err := p.sendPD.RegMR(nil); err == nil {
		t.Fatal("registered empty buffer")
	}
}

func TestMRKeysAreDistinct(t *testing.T) {
	p := newPair(t, 64)
	mr2, err := p.sendPD.RegMR(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if mr2.LKey() == p.sendMR.LKey() || mr2.RKey() == p.sendMR.RKey() {
		t.Fatal("key collision between registrations")
	}
	if mr2.Addr() == p.sendMR.Addr() {
		t.Fatal("address collision between registrations")
	}
	if mr2.Len() != 64 {
		t.Fatalf("Len = %d", mr2.Len())
	}
}

func TestCQOverrunLatches(t *testing.T) {
	e := sim.NewEngine()
	f := fabric.New(e, fabric.DefaultConfig())
	ha := NewHCA(e, f, "a")
	cq := ha.Open().CreateCQ(1)
	cq.push(WC{WRID: 1})
	cq.push(WC{WRID: 2}) // dropped
	if !cq.Overrun() {
		t.Fatal("overrun not latched")
	}
	var wcs [4]WC
	if n := cq.Poll(wcs[:]); n != 1 || wcs[0].WRID != 1 {
		t.Fatalf("poll after overrun: n=%d", n)
	}
}

func TestCQWaitNotEmpty(t *testing.T) {
	p := newPair(t, 64)
	var sawAt sim.Time
	p.eng.Spawn("poller", func(pr *sim.Proc) {
		p.recvCQ.WaitNotEmpty(pr)
		sawAt = pr.Now()
	})
	p.eng.After(0, func() {
		if err := p.recvQP.PostRecv(RecvWR{}); err != nil {
			t.Error(err)
		}
		err := p.sendQP.PostSend(SendWR{
			Opcode:     OpRDMAWriteImm,
			SGList:     []SGE{p.sendMR.SGEFor(0, 64)},
			RemoteAddr: p.recvMR.Addr(),
			RKey:       p.recvMR.RKey(),
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err := p.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sawAt == 0 {
		t.Fatal("waiter woke at time zero or never")
	}
}

func TestCreateQPValidation(t *testing.T) {
	p := newPair(t, 64)
	if _, err := p.sendPD.CreateQP(QPConfig{}); err == nil {
		t.Fatal("CreateQP without CQs accepted")
	}
	cq := p.sendPD.Context().CreateCQ(1)
	if _, err := p.sendPD.CreateQP(QPConfig{SendCQ: cq, RecvCQ: cq, MaxSendWR: -1}); err == nil {
		t.Fatal("CreateQP with negative SQ depth accepted")
	}
}

func TestStringers(t *testing.T) {
	for s := StatusSuccess; s <= StatusWRFlushErr+1; s++ {
		if s.String() == "" {
			t.Errorf("empty Status string for %d", s)
		}
	}
	for o := WCSend; o <= WCRecvRDMAWithImm+1; o++ {
		if o.String() == "" {
			t.Errorf("empty WCOpcode string for %d", o)
		}
	}
	for st := StateReset; st <= StateErr+1; st++ {
		if st.String() == "" {
			t.Errorf("empty QPState string for %d", st)
		}
	}
	for op := OpSend; op <= OpRDMAWriteImm+1; op++ {
		if op.String() == "" {
			t.Errorf("empty Opcode string for %d", op)
		}
	}
}
