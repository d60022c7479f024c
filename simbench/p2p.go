package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The p2p-msgrate workload drives core's public API itself rather than
// through bench.RunP2P, which replaces Options.Observer with its profiler:
// its own round loop can place host-time spans around Start, Pready and Wait.

const (
	p2pParts = 32
	// The straggler rotates through the partitions, one per round. The
	// warm-up covers one full rotation, so the send contexts' payload
	// buffers (recycled per QP, grown on demand) reach their final sizes
	// before measuring; the measured rounds cover four rotations, so each
	// seed measures every straggler position equally often.
	p2pWarmup = p2pParts
	p2pIters  = 4 * p2pParts
	// p2pSpread is the straggler delay. It exceeds the timer strategy's
	// default δ of 35 µs, so the timer's early-bird path fires.
	p2pSpread = 50 * time.Microsecond
	// p2pJitter spreads every thread's arrival uniformly on top of the
	// straggler pattern. The straggler's delay is fixed, so without it the
	// round times would not depend on the seed at all.
	p2pJitter = 2 * time.Microsecond
)

// p2pCombo is one (total size, strategy) point of the workload.
type p2pCombo struct {
	bytes    int
	strategy core.Strategy
}

func (c p2pCombo) String() string { return fmt.Sprintf("%dKiB/%s", c.bytes>>10, c.strategy) }

var p2pCombos = func() []p2pCombo {
	var cs []p2pCombo
	for _, size := range []int{16 << 10, 64 << 10, 256 << 10} {
		for _, s := range []core.Strategy{core.StrategyBaseline, core.StrategyPLogGP, core.StrategyTimerPLogGP} {
			cs = append(cs, p2pCombo{bytes: size, strategy: s})
		}
	}
	return cs
}()

// p2pSpans are the round loop's host-time spans and virtual wait time; they
// are recorded only in traced repeats.
type p2pSpans struct {
	starts, startNs   int64
	preadies, readyNs int64
	waits             int64
	waitSim           time.Duration
}

func (s *p2pSpans) add(o p2pSpans) {
	s.starts += o.starts
	s.startNs += o.startNs
	s.preadies += o.preadies
	s.readyNs += o.readyNs
	s.waits += o.waits
	s.waitSim += o.waitSim
}

// p2pResult is one combo's run.
type p2pResult struct {
	setup, measured    time.Duration
	allocs, allocBytes uint64
	iterTimes          []time.Duration
	badRounds          int
	spans              p2pSpans
}

// runP2P runs one combo: two ranks on two nodes of the default single-link
// fabric, serial engine, one sender thread per partition. Each thread
// stamps the round number into its partition before Pready; the receiver
// checks every stamp after each round's Wait and the whole buffer after
// the last round.
func runP2P(c p2pCombo, seed uint64, traced bool) (p2pResult, error) {
	begin := time.Now()
	w := mpi.NewWorld(mpi.Config{Cluster: cluster.NiagaraConfig(2)})
	provider := "verbs"
	if traced {
		provider = tracedProviderName
	}
	var engines [2]*core.Engine
	for i := range engines {
		eng, err := core.NewEngine(w.Rank(i), provider)
		if err != nil {
			return p2pResult{}, err
		}
		engines[i] = eng
	}
	sendBuf := make([]byte, c.bytes)
	for i := range sendBuf {
		sendBuf[i] = byte(i*7 + 3)
	}
	recvBuf := make([]byte, c.bytes)
	partBytes := c.bytes / p2pParts
	opts := core.Options{Strategy: c.strategy}

	total := p2pWarmup + p2pIters
	starts := make([]sim.Time, total)
	dones := make([]sim.Time, total)
	var (
		out         p2pResult
		sp          p2pSpans
		measureFrom time.Duration
		mem0        runtime.MemStats
	)
	span := func(t0 time.Time, n, ns *int64) {
		*ns += int64(time.Since(t0))
		*n++
	}

	err := w.Run(func(p *sim.Proc, r *mpi.Rank) {
		switch r.ID() {
		case 0:
			ps, err := engines[0].PsendInit(p, sendBuf, p2pParts, 1, 0, opts)
			if err != nil {
				panic(err)
			}
			straggler := (&trace.ArrivalPattern{Kind: trace.PatternStraggler, Seed: seed, Spread: p2pSpread}).Instance(0)
			jitter := (&trace.ArrivalPattern{Kind: trace.PatternUniform, Seed: seed, Spread: p2pJitter}).Instance(1)
			arrivals := make([]time.Duration, p2pParts)
			jitters := make([]time.Duration, p2pParts)
			g := sim.NewGroup(p.Engine())
			round := 0
			threads := make([]func(tp *sim.Proc), p2pParts)
			for t := range threads {
				t := t
				threads[t] = func(tp *sim.Proc) {
					defer g.Done()
					if d := arrivals[t]; d > 0 {
						r.Compute(tp, d)
					}
					binary.LittleEndian.PutUint64(sendBuf[t*partBytes:], uint64(round))
					var t0 time.Time
					if traced {
						t0 = time.Now()
					}
					err := ps.Pready(tp, t)
					if traced {
						span(t0, &sp.preadies, &sp.readyNs)
					}
					if err != nil {
						panic(err)
					}
				}
			}
			for iter := 0; iter < total; iter++ {
				r.Barrier(p)
				starts[iter] = p.Now()
				round = iter
				if iter == p2pWarmup {
					measureFrom = time.Since(begin)
					runtime.ReadMemStats(&mem0)
				}
				var t0 time.Time
				if traced {
					t0 = time.Now()
				}
				err := ps.Start(p)
				if traced {
					span(t0, &sp.starts, &sp.startNs)
				}
				if err != nil {
					panic(err)
				}
				if iter == 0 {
					out.setup = time.Since(begin)
				}
				straggler.Delays(iter, arrivals)
				jitter.Delays(iter, jitters)
				for t, d := range jitters {
					arrivals[t] += d
				}
				for t := range threads {
					g.Add(1)
					p.Engine().Spawn("p2p-thread", threads[t])
				}
				g.Wait(p)
				w0 := p.Now()
				if err := ps.Wait(p); err != nil {
					panic(err)
				}
				sp.waitSim += p.Now().Sub(w0)
				sp.waits++
			}
		case 1:
			pr, err := engines[1].PrecvInit(p, recvBuf, p2pParts, 0, 0, opts)
			if err != nil {
				panic(err)
			}
			for iter := 0; iter < total; iter++ {
				r.Barrier(p)
				if err := pr.Start(p); err != nil {
					panic(err)
				}
				w0 := p.Now()
				if err := pr.Wait(p); err != nil {
					panic(err)
				}
				dones[iter] = p.Now()
				sp.waitSim += dones[iter].Sub(w0)
				sp.waits++
				if !stampsOK(recvBuf, partBytes, iter) {
					out.badRounds++
				}
			}
		}
	})
	if err != nil {
		return p2pResult{}, err
	}
	end := time.Since(begin)
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	if !bytes.Equal(recvBuf, sendBuf) {
		out.badRounds++
	}
	out.measured = end - measureFrom
	out.allocs = mem1.Mallocs - mem0.Mallocs
	out.allocBytes = mem1.TotalAlloc - mem0.TotalAlloc
	for i := p2pWarmup; i < total; i++ {
		out.iterTimes = append(out.iterTimes, dones[i].Sub(starts[i]))
	}
	if traced {
		out.spans = sp
	}
	return out, nil
}

// stampsOK reports whether every partition of buf starts with the round
// number the sender stamped into it.
func stampsOK(buf []byte, partBytes, round int) bool {
	for off := 0; off < len(buf); off += partBytes {
		if binary.LittleEndian.Uint64(buf[off:]) != uint64(round) {
			return false
		}
	}
	return true
}

// runP2PRepeat runs every combo once; together they make one repeat.
func runP2PRepeat(seed uint64, traced bool) (*repeat, error) {
	rep := &repeat{}
	d := newDigest()
	for _, c := range p2pCombos {
		res, err := runP2P(c, seed, traced)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", c, err)
		}
		rep.setup += res.setup
		rep.measured += res.measured
		rep.rounds += p2pIters
		rep.allocs += res.allocs
		rep.allocBytes += res.allocBytes
		rep.badRounds += res.badRounds
		rep.roundTimes = append(rep.roundTimes, res.iterTimes...)
		d.durations(res.iterTimes)
		rep.layers.spans.add(res.spans)
	}
	rep.layers.preadies = rep.layers.spans.preadies
	rep.digest = d.sum()
	return rep, nil
}
