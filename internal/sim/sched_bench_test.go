package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// Calendar-queue microbenchmarks: schedule-and-fire cycles against each
// tier of the scheduler, run with -benchmem so per-op allocations gate
// regressions (steady state must stay at ~0 allocs/op — the event free
// list absorbs every schedule).

func benchNop(Time, any) {}

func benchTimerNop() {}

// benchScheduleFire keeps a fixed backlog of in-flight events and, per
// iteration, schedules one event at now+delta (cycling through deltas)
// and fires the earliest.
func benchScheduleFire(b *testing.B, backlog int, deltas []time.Duration) {
	e := NewEngine()
	for i := 0; i < backlog; i++ {
		e.AtCall(e.Now().Add(deltas[i%len(deltas)]), benchNop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtCall(e.Now().Add(deltas[i%len(deltas)]), benchNop, nil)
		e.Step()
	}
	b.StopTimer()
	for e.Step() {
	}
}

// BenchmarkScheduleFireNear exercises the bucket tier: every event lands
// a few ticks ahead of the clock, inside the calendar window.
func BenchmarkScheduleFireNear(b *testing.B) {
	benchScheduleFire(b, 64, []time.Duration{2 * time.Microsecond})
}

// BenchmarkScheduleFireFar exercises the far-heap tier: every event lands
// well past the calendar window (δ-timer / compute-sleep territory), so
// each one is pushed onto the 4-ary heap and later migrated into the
// window by refill.
func BenchmarkScheduleFireFar(b *testing.B) {
	benchScheduleFire(b, 64, []time.Duration{4 * time.Millisecond})
}

// BenchmarkScheduleFireMixed interleaves all three tiers: same-instant
// ring hits, in-window bucket inserts, and far-heap overflows.
func BenchmarkScheduleFireMixed(b *testing.B) {
	benchScheduleFire(b, 64, []time.Duration{
		0,
		2 * time.Microsecond,
		30 * time.Microsecond,
		4 * time.Millisecond,
	})
}

// BenchmarkScheduleFireJitter is the out-of-order pattern of jittered
// compute sleeps and link charges: every event lands a uniformly random
// delta in [0, span) ahead of the clock, so inserts hit the middle of the
// tick being drained (4us span, side heap) or of future ticks (40us span,
// dirty buckets sorted at dispatch). The deltas come from a fixed seed and
// are drawn before the timer starts.
func BenchmarkScheduleFireJitter(b *testing.B) {
	for _, backlog := range []int{256, 1024} {
		for _, span := range []time.Duration{4 * time.Microsecond, 40 * time.Microsecond} {
			rng := rand.New(rand.NewSource(1))
			deltas := make([]time.Duration, 4096)
			for i := range deltas {
				deltas[i] = time.Duration(rng.Int63n(int64(span)))
			}
			b.Run(fmt.Sprintf("backlog=%d/span=%dus", backlog, span/time.Microsecond), func(b *testing.B) {
				benchScheduleFire(b, backlog, deltas)
			})
		}
	}
}

// BenchmarkTimerStopStart measures the AfterFunc+Stop cycle. Stop is lazy
// O(1) (mark and skip), so the cost must not scale with the number of
// pending events; the periodic RunUntil sweeps the cancelled husks so the
// queue cannot grow without bound during the measurement.
func BenchmarkTimerStopStart(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.AfterFunc(2*time.Microsecond, benchTimerNop)
		if !tm.Stop() {
			b.Fatal("Stop on a pending timer returned false")
		}
		if i%1024 == 1023 {
			if err := e.RunUntil(e.Now().Add(4 * time.Microsecond)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
