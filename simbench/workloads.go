package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// workload is one named benchmark input. A repeat runs the whole
// configuration once, set-up included; a run makes as many repeats as its
// time budget allows and reports medians over them.
type workload struct {
	name string
	// totalRounds is the number of rounds a repeat executes, warm-up
	// included: the count charged as attempted (and failed, if the repeat
	// fails) and the divisor of the per-round layer counts.
	totalRounds int
	run         func(seed uint64, traced bool) (*repeat, error)
	// reference, if set, recomputes a repeat's digest on the serial engine.
	// It runs once per invocation, outside the timed region.
	reference func(seed uint64) ([32]byte, error)
}

var workloads = []*workload{
	{name: "p2p-msgrate", totalRounds: len(p2pCombos) * (p2pWarmup + p2pIters), run: runP2PRepeat},
	{name: "halo-fattree", totalRounds: haloWarmup + haloIters, run: runHalo},
	{name: "sweep3d-sharded", totalRounds: sweepWarmup + sweepIters, run: runSweep, reference: sweepReference},
}

func workloadNamed(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// repeat is one run of a workload's configuration.
type repeat struct {
	setup    time.Duration // host: entering the workload to the first Start
	measured time.Duration // host: first measured round to the end of the run
	wall     time.Duration // host: the whole repeat
	rounds   int           // measured rounds
	// allocs and allocBytes count heap allocations in the measured region.
	allocs, allocBytes uint64
	// roundTimes is the simulated time of each measured round.
	roundTimes []time.Duration
	// digest covers every virtual-time output of the repeat; repeats of
	// one seed must agree on it exactly.
	digest [32]byte
	// badRounds counts rounds that failed an in-run output check.
	badRounds int
	// events and sched are the simulator's counter deltas over the repeat.
	events uint64
	sched  sim.SchedStats
	layers layerSample
}

// roundsPerSec is the repeat's measured throughput in host time.
func (r *repeat) roundsPerSec() float64 { return float64(r.rounds) / r.measured.Seconds() }

// layerSample holds the raw per-layer observations of a repeat; the traced
// fields are zero in untraced repeats.
type layerSample struct {
	preadies int64
	spans    p2pSpans
	adaptive []*core.AdaptiveStats
	shard    *sim.ShardStats
	traced   tracedTotals
}

// digest hashes virtual-time outputs in a fixed binary encoding.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digest) durations(ds []time.Duration) {
	d.u64(uint64(len(ds)))
	for _, v := range ds {
		d.u64(uint64(v))
	}
}

func (d digest) adaptive(stats []*core.AdaptiveStats) {
	for _, s := range stats {
		if s != nil {
			fmt.Fprintf(d.h, "%+v", *s)
		}
		d.h.Write([]byte{0})
	}
}

func (d digest) sum() (out [32]byte) {
	copy(out[:], d.h.Sum(nil))
	return out
}

// clockRepeat fills the host-time fields of a runner-driven repeat from
// its round clock, given the host time at which the runner returned.
func clockRepeat(c *roundClock, wall time.Duration, iters int) (*repeat, error) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	setup, ok := c.at(1)
	if !ok {
		return nil, fmt.Errorf("round 1 never started")
	}
	from, ok := c.at(c.measure)
	if !ok {
		return nil, fmt.Errorf("measured round %d never started", c.measure)
	}
	return &repeat{
		setup:      setup,
		measured:   wall - from,
		wall:       wall,
		rounds:     iters,
		allocs:     after.Mallocs - c.mem.Mallocs,
		allocBytes: after.TotalAlloc - c.mem.TotalAlloc,
		layers:     layerSample{preadies: c.preadies.Load()},
	}, nil
}

// halo-fattree: every rank active at once on a routed fat-tree, with the
// adaptive strategy switching designs under zipf-skewed arrivals.
const (
	haloWarmup = 3
	haloIters  = 40
)

func haloConfig(seed uint64) bench.HaloConfig {
	return bench.HaloConfig{
		GridX: 16, GridY: 16,
		Threads: 8,
		Bytes:   64 << 10,
		Compute: 20 * time.Microsecond,
		Warmup:  haloWarmup,
		Iters:   haloIters,
		Opts:    core.Options{Strategy: core.StrategyAdaptive},
		Topo:    "fat-tree:k=24",
		Arrival: &trace.ArrivalPattern{Kind: trace.PatternZipf, Seed: seed},
	}
}

func runHalo(seed uint64, traced bool) (*repeat, error) {
	cfg := haloConfig(seed)
	if traced {
		cfg.Provider = tracedProviderName
	}
	clock := newRoundClock(cfg.Warmup+cfg.Iters, cfg.Warmup+1, traced)
	cfg.Opts.Observer = clock
	res, err := bench.RunHalo(cfg)
	wall := time.Since(clock.begin)
	if err != nil {
		return nil, err
	}
	rep, err := clockRepeat(clock, wall, cfg.Iters)
	if err != nil {
		return nil, err
	}
	rep.roundTimes = res.IterTimes
	d := newDigest()
	d.durations(res.IterTimes)
	d.adaptive(res.Adaptive)
	rep.digest = d.sum()
	rep.layers.adaptive = res.Adaptive
	return rep, nil
}

// sweep3d-sharded: the paper-scale Sweep3D wavefront on two PDES shards.
// The uniform arrival jitter is small against the 20 µs compute; it is
// what the seed varies.
const (
	sweepWarmup = 3
	sweepIters  = 40
	sweepShards = 2
)

func sweepConfig(seed uint64, shards int) bench.SweepConfig {
	return bench.SweepConfig{
		GridX: 32, GridY: 32,
		Threads:  4,
		Bytes:    16 << 10,
		Compute:  20 * time.Microsecond,
		NoisePct: 5,
		Warmup:   sweepWarmup,
		Iters:    sweepIters,
		Opts:     core.Options{Strategy: core.StrategyPLogGP},
		Shards:   shards,
		Workers:  shards,
		Arrival:  &trace.ArrivalPattern{Kind: trace.PatternUniform, Seed: seed, Spread: 2 * time.Microsecond},
	}
}

// sweepDigest covers the outputs a sharded run must share with a serial
// run of the same configuration.
func sweepDigest(res bench.SweepResult) [32]byte {
	d := newDigest()
	d.durations(res.IterTimes)
	d.u64(uint64(len(res.BufferSums)))
	for _, s := range res.BufferSums {
		d.u64(s)
	}
	d.adaptive(res.AdaptiveEast)
	d.adaptive(res.AdaptiveSouth)
	return d.sum()
}

func runSweep(seed uint64, traced bool) (*repeat, error) {
	cfg := sweepConfig(seed, sweepShards)
	if traced {
		cfg.Provider = tracedProviderName
	}
	clock := newRoundClock(cfg.Warmup+cfg.Iters, cfg.Warmup+1, traced)
	cfg.Opts.Observer = clock
	res, err := bench.RunSweep(cfg)
	wall := time.Since(clock.begin)
	if err != nil {
		return nil, err
	}
	rep, err := clockRepeat(clock, wall, cfg.Iters)
	if err != nil {
		return nil, err
	}
	rep.roundTimes = res.IterTimes
	rep.digest = sweepDigest(res)
	rep.layers.shard = res.ShardStats
	return rep, nil
}

func sweepReference(seed uint64) ([32]byte, error) {
	res, err := bench.RunSweep(sweepConfig(seed, 0))
	if err != nil {
		return [32]byte{}, fmt.Errorf("serial reference: %w", err)
	}
	return sweepDigest(res), nil
}
