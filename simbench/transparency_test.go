package main

import (
	"testing"

	"repro/internal/bench"
)

// TestTracingIsTransparent runs each workload untraced and traced: the
// decorator provider and the counting observer must leave every
// virtual-time output byte-identical, and the traced run must see the
// transport work.
func TestTracingIsTransparent(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name != "p2p-msgrate" {
				t.Skip("large workload")
			}
			plain, err := w.run(3, false)
			takeTraced()
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.run(3, true)
			pvs := takeTraced()
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest != traced.digest {
				t.Fatal("traced virtual-time outputs differ from untraced")
			}
			tot, err := collectTraced(pvs)
			if err != nil {
				t.Fatal(err)
			}
			if tot.x.postSend == 0 || tot.x.completions == 0 || traced.layers.preadies == 0 {
				t.Errorf("traced run saw no work: %+v, %d Preadies", tot.x, traced.layers.preadies)
			}
			if tot.x.failedComps != 0 || tot.x.postErrors != 0 {
				t.Errorf("%d failed completions, %d post errors", tot.x.failedComps, tot.x.postErrors)
			}
			if plain.badRounds != 0 || traced.badRounds != 0 {
				t.Errorf("bad rounds: untraced %d, traced %d", plain.badRounds, traced.badRounds)
			}
		})
	}
}

// TestSecondSeedPassesChecks runs the p2p workload on a seed other than the
// default through the full end-to-end path, serial reference included where
// the workload has one.
func TestSecondSeedPassesChecks(t *testing.T) {
	w, err := workloadNamed("p2p-msgrate")
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	if _, err := measureEndToEnd(w, defaultSeed+1, 0, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Errorf("%d of %d rounds failed: %v", tl.failed, tl.attempted, tl.notes)
	}
}

// TestRoundClockSharded drives the round clock and the traced provider from
// the shard workers of a small sharded sweep (run it under -race).
func TestRoundClockSharded(t *testing.T) {
	cfg := sweepConfig(1, sweepShards)
	cfg.GridX, cfg.GridY, cfg.Warmup, cfg.Iters = 4, 4, 2, 3
	cfg.Provider = tracedProviderName
	clock := newRoundClock(cfg.Warmup+cfg.Iters, cfg.Warmup+1, true)
	cfg.Opts.Observer = clock
	res, err := bench.RunSweep(cfg)
	pvs := takeTraced()
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardStats == nil {
		t.Fatal("sweep ran serially")
	}
	for r := 1; r <= cfg.Warmup+cfg.Iters; r++ {
		if _, ok := clock.at(r); !ok {
			t.Errorf("round %d has no start stamp", r)
		}
	}
	// 12 ranks send east and 12 south, each send readying every thread's
	// partition once per round.
	if got, want := clock.preadies.Load(), int64(24*cfg.Threads*(cfg.Warmup+cfg.Iters)); got != want {
		t.Errorf("counted %d Preadies, want %d", got, want)
	}
	if len(pvs) != cfg.GridX*cfg.GridY {
		t.Errorf("%d traced providers for %d ranks", len(pvs), cfg.GridX*cfg.GridY)
	}
}
