package sim

import (
	"math/rand"
	"testing"
	"time"
)

// Targeted structural tests for the calendar queue: each exercises one
// tier or window transition directly (the randomized differential test in
// sched_diff_test.go covers their interactions).

// TestSameInstantRingFIFO checks that events scheduled for Now() from
// inside a callback run in FIFO order at the same instant, after events
// that were already pending at that time.
func TestSameInstantRingFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(time.Microsecond, func() {
		order = append(order, 1)
		e.After(0, func() { order = append(order, 3) })
		e.After(0, func() {
			order = append(order, 4)
			e.After(0, func() { order = append(order, 5) })
		})
	})
	e.After(time.Microsecond, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("fire order %v, want 1..5", order)
		}
	}
	if s := e.SchedStats(); s.Ring != 3 {
		t.Fatalf("ring insertions = %d, want 3 (stats %+v)", s.Ring, s)
	}
}

// TestFarHeapOrdering schedules events far beyond the calendar window in
// random order and checks they fire sorted, with the far tier actually
// used and refill migrating them back into the window.
func TestFarHeapOrdering(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	const n = 500
	ats := make([]time.Duration, n)
	for i := range ats {
		// 1ms..100ms: far past the ~524µs window.
		ats[i] = time.Millisecond + time.Duration(rng.Intn(99_000_000))
	}
	var fired []Time
	for _, d := range ats {
		e.After(d, func() { fired = append(fired, e.Now()) })
	}
	if s := e.SchedStats(); s.Far == 0 {
		t.Fatalf("no far-heap insertions recorded (stats %+v)", s)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fire %d at %v before fire %d at %v", i, fired[i], i-1, fired[i-1])
		}
	}
}

// TestReanchorWindowDown forces the window-down path: the first insert
// anchors the window high, then a second insert lands on an earlier tick
// and must re-anchor without losing or reordering anything.
func TestReanchorWindowDown(t *testing.T) {
	e := NewEngine()
	var order []int
	// First insert into an empty engine anchors the window at 10ms.
	e.After(10*time.Millisecond, func() { order = append(order, 2) })
	// 1ms is an earlier tick than the anchor: window must move down.
	e.After(time.Millisecond, func() { order = append(order, 1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("fire order %v, want [1 2]", order)
	}
}

// TestSameTimeFIFOAcrossTiers schedules many events for one single far
// instant from different moments (so they traverse far heap and buckets)
// and checks the seq FIFO tie-break holds after migration.
func TestSameTimeFIFOAcrossTiers(t *testing.T) {
	e := NewEngine()
	target := Time(0).Add(5 * time.Millisecond)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(target, func() { order = append(order, i) })
	}
	// Let the clock crawl so refill happens with the target still ahead.
	e.At(Time(0).Add(time.Millisecond), func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 100 {
		t.Fatalf("fired %d, want 100", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time FIFO broken: order[%d] = %d", i, v)
		}
	}
}

// TestRunUntilIdleThenSchedule advances the clock past every event with
// RunUntil, then schedules again: inserts behind the stale window anchor
// must still fire, in order.
func TestRunUntilIdleThenSchedule(t *testing.T) {
	e := NewEngine()
	e.After(2*time.Millisecond, func() {})
	if err := e.RunUntil(Time(0).Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(0).Add(50*time.Millisecond) {
		t.Fatalf("Now() = %v after idle advance", e.Now())
	}
	var order []int
	e.After(3*time.Microsecond, func() { order = append(order, 1) })
	e.After(time.Microsecond, func() { order = append(order, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("fire order %v, want [0 1]", order)
	}
}

// TestSchedStatsTiers checks the per-engine placement counters attribute
// insertions to the tier that actually held them.
func TestSchedStatsTiers(t *testing.T) {
	e := NewEngine()
	done := false
	e.After(time.Microsecond, func() {
		e.After(0, func() {})                                 // ring
		e.After(5*time.Microsecond, func() {})                // bucket
		e.After(100*time.Millisecond, func() { done = true }) // far
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("far event did not fire")
	}
	s := e.SchedStats()
	if s.Ring != 1 || s.Far != 1 || s.Bucket < 2 {
		t.Fatalf("stats %+v, want 1 ring, >=2 bucket, 1 far", s)
	}
	if s.MaxBucket < 1 {
		t.Fatalf("MaxBucket = %d, want >= 1", s.MaxBucket)
	}
}

// TestProcShellRecycle checks the proc shell's lifetime: an exited proc's
// shell (struct and coroutine) is reused by later Spawns without leaking
// state between bodies; Run stops the coroutine of a free shell on return
// and keeps the struct, and the next Spawn gives it a new coroutine.
func TestProcShellRecycle(t *testing.T) {
	e := NewEngine()
	var first *Proc
	first = e.Spawn("one", func(p *Proc) {
		if p != first {
			t.Errorf("body got %p, Spawn returned %p", p, first)
		}
		p.Sleep(time.Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.procFree) != 1 {
		t.Fatalf("procFree holds %d shells after exit, want 1", len(e.procFree))
	}
	if first.next != nil || first.stop != nil || first.yield != nil {
		t.Fatal("Run returned with a free shell's coroutine still running")
	}
	second := e.Spawn("two", func(p *Proc) {
		if p.Name() != "two" {
			t.Errorf("recycled proc kept stale name %q", p.Name())
		}
		if p.Done() {
			t.Error("recycled proc started with done=true")
		}
		p.Sleep(time.Microsecond)
	})
	if second != first {
		t.Fatalf("Spawn did not reuse the recycled shell (%p vs %p)", second, first)
	}
	if second.next == nil {
		t.Fatal("Spawn on a stopped shell did not create a coroutine")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.procFree) != 1 {
		t.Fatalf("procFree holds %d shells after second run, want 1", len(e.procFree))
	}
	if first.next != nil {
		t.Fatal("second Run returned with the free shell's coroutine still running")
	}
}
