package bench

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xport"
)

func TestHaloConfigValidate(t *testing.T) {
	good := HaloConfig{GridX: 2, GridY: 2, Threads: 4, Bytes: 4096}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []HaloConfig{
		{GridX: 1, GridY: 2, Threads: 4, Bytes: 4096},
		{GridX: 2, GridY: 2, Threads: 0, Bytes: 4096},
		{GridX: 2, GridY: 2, Threads: 3, Bytes: 100},
		{GridX: 2, GridY: 2, Threads: 4, Bytes: 4096, NoisePct: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestHaloRuns(t *testing.T) {
	res, err := RunHalo(HaloConfig{
		GridX: 3, GridY: 2,
		Threads: 4,
		Bytes:   64 << 10,
		Compute: 100 * time.Microsecond,
		Warmup:  1, Iters: 3,
		Opts: core.Options{Strategy: core.StrategyPLogGP},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterTimes) != 3 {
		t.Fatalf("got %d iterations", len(res.IterTimes))
	}
	for _, d := range res.IterTimes {
		if d < res.Compute {
			t.Fatalf("iteration %v below compute %v", d, res.Compute)
		}
	}
	if res.MeanCommTime() <= 0 {
		t.Fatal("non-positive comm time")
	}
}

func TestHaloAggregationBeatsBaseline(t *testing.T) {
	run := func(opts core.Options) time.Duration {
		res, err := RunHalo(HaloConfig{
			GridX: 2, GridY: 2,
			Threads:  16,
			Bytes:    256 << 10,
			Compute:  500 * time.Microsecond,
			NoisePct: 1,
			Warmup:   1, Iters: 3,
			Opts: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanCommTime()
	}
	base := run(core.Options{Strategy: core.StrategyBaseline})
	timer := run(core.Options{Strategy: core.StrategyTimerPLogGP, Delta: 35 * time.Microsecond})
	if timer >= base {
		t.Fatalf("timer comm %v not below baseline %v", timer, base)
	}
}

// TestIntraNodeProviderRejectsMultiNodeWorld checks that the multi-node
// benchmarks refuse an intra-node-only provider with a typed error
// instead of panicking at endpoint wireup.
func TestIntraNodeProviderRejectsMultiNodeWorld(t *testing.T) {
	_, err := RunHalo(HaloConfig{
		GridX: 2, GridY: 2, Threads: 4, Bytes: 4096,
		Warmup: 1, Iters: 1, Provider: "shm",
	})
	if !errors.Is(err, xport.ErrCrossNode) {
		t.Errorf("RunHalo over shm: err = %v, want ErrCrossNode", err)
	}
	_, err = RunSweep(SweepConfig{
		GridX: 2, GridY: 2, Threads: 4, Bytes: 4096,
		Warmup: 1, Iters: 1, Provider: "shm",
	})
	if !errors.Is(err, xport.ErrCrossNode) {
		t.Errorf("RunSweep over shm: err = %v, want ErrCrossNode", err)
	}
}
