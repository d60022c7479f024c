package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// roundClock is the core.Observer a halo or sweep repeat runs with. The
// runners own the rounds, so this is how the benchmark sees them from
// outside: it stamps the host time of each round's first Start (set-up ends
// at round 1's, the measured region begins at the first measured round's),
// takes the allocation counters at the measured boundary, and in a traced
// repeat counts Pready calls. Shards call it concurrently, so the shared
// fields are atomic.
type roundClock struct {
	begin   time.Time
	measure int  // first measured round, 1-based as core numbers rounds
	count   bool // count Pready calls (traced repeats)

	// starts[r] is the host time of round r's first Start, in nanoseconds
	// after begin plus one (zero means not yet seen).
	starts []atomic.Int64
	// mem is written by the goroutine that stamps round measure; the run's
	// completion orders it before the caller reads it.
	mem runtime.MemStats

	preadies atomic.Int64
}

func newRoundClock(rounds, measure int, count bool) *roundClock {
	return &roundClock{
		begin:   time.Now(),
		measure: measure,
		count:   count,
		starts:  make([]atomic.Int64, rounds+1),
	}
}

// PsendStart stamps the round's first Start.
func (c *roundClock) PsendStart(round int, _ sim.Time) {
	if round >= len(c.starts) || c.starts[round].Load() != 0 {
		return
	}
	if c.starts[round].CompareAndSwap(0, int64(time.Since(c.begin))+1) && round == c.measure {
		runtime.ReadMemStats(&c.mem)
	}
}

// PreadyCalled counts Pready calls in traced repeats.
func (c *roundClock) PreadyCalled(_, _ int, _ sim.Time) {
	if c.count {
		c.preadies.Add(1)
	}
}

// at returns the host time of round r's first Start after begin, and
// whether the round started.
func (c *roundClock) at(r int) (time.Duration, bool) {
	v := c.starts[r].Load()
	return time.Duration(v - 1), v != 0
}
