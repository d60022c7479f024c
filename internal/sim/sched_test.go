package sim

import (
	"math/rand"
	"slices"
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

// recordAt returns a callback that appends the engine's clock to *log.
func recordAt(e *Engine, log *[]Time) func() {
	return func() { *log = append(*log, e.Now()) }
}

// checkFireOrder fails unless log holds exactly want, in order.
func checkFireOrder(t *testing.T, log, want []Time) {
	t.Helper()
	if !slices.Equal(log, want) {
		t.Fatalf("fired at %v, want %v", log, want)
	}
}

// TestSideHeapPullBack fills the side heap of a tick the cursor reached
// ahead of the clock, then schedules an event on an earlier tick: the
// cursor pull-back must return the side heap to the tick's chain, mark it
// dirty, and still fire everything in order.
func TestSideHeapPullBack(t *testing.T) {
	e := NewEngine()
	var log []Time
	rec := recordAt(e, &log)
	base := Time(10 << bucketShift)
	e.At(1, rec) // anchors the window at tick 0
	e.At(base+100, rec)
	e.At(base+300, rec)
	// RunUntil leaves the cursor on tick 10 with the clock at 5µs.
	if err := e.RunUntil(Time(5 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	e.At(base+200, rec) // neither head nor tail of the cursor's chain
	if len(e.side) != 1 {
		t.Fatalf("side heap holds %d events, want 1", len(e.side))
	}
	e.After(time.Microsecond, rec) // tick 2: pulls the cursor back
	if len(e.side) != 0 || !e.dirty[10] || e.cursor != 2 {
		t.Fatalf("after pull-back: side %d, dirty[10] %v, cursor %d; want 0, true, 2",
			len(e.side), e.dirty[10], e.cursor)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	checkFireOrder(t, log, []Time{1, Time(6 * time.Microsecond), base + 100, base + 200, base + 300})
}

// TestSideHeapHuskChain cancels every event of the cursor tick's chain
// while the side heap holds the tick's only live event: the drain must
// drop the husks, promote the side top into the emptied chain, and keep
// appending behind it.
func TestSideHeapHuskChain(t *testing.T) {
	e := NewEngine()
	var log []Time
	rec := recordAt(e, &log)
	base := Time(10 << bucketShift)
	e.At(1, rec)
	head := e.AfterFunc(time.Duration(base+100), rec)
	tail := e.AfterFunc(time.Duration(base+300), rec)
	if err := e.RunUntil(Time(5 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	e.At(base+200, rec)
	head.Stop()
	tail.Stop()
	if err := e.RunUntil(Time(6 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if h := e.buckets[10]; h == nil || h.at != base+200 || e.tails[10] != h || len(e.side) != 0 {
		t.Fatalf("chain head %v, side %d; want the event at %v alone in the chain", h, len(e.side), base+200)
	}
	e.At(base+250, rec)
	e.After(time.Microsecond, rec) // pulls the cursor back
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	checkFireOrder(t, log, []Time{1, Time(7 * time.Microsecond), base + 200, base + 250})
}

// TestSideHeapReanchor fills the side heap of the window's first tick and
// then inserts below the anchor, twice: once close enough that the bucketed
// events stay in the new window, once so far below that they spill to the
// far heap. Both re-anchors must carry the side heap's event along.
func TestSideHeapReanchor(t *testing.T) {
	e := NewEngine()
	var log []Time
	rec := recordAt(e, &log)
	base := Time(tickOf(Time(10*time.Millisecond)) << bucketShift)
	e.At(base+100, rec) // anchors the window, and the cursor, at base's tick
	e.At(base+300, rec)
	e.At(base+200, rec)
	if len(e.side) != 1 {
		t.Fatalf("side heap holds %d events, want 1", len(e.side))
	}
	near := base - Time(100*time.Microsecond)
	e.At(near, rec) // within one window of base: events stay bucketed
	if len(e.side) != 0 || len(e.far) != 0 {
		t.Fatalf("after near re-anchor: side %d, far %d; want 0, 0", len(e.side), len(e.far))
	}
	e.At(near+50, rec) // tail of the new cursor's chain
	e.At(near+10, rec) // neither head nor tail: side heap
	e.At(near+30, rec) // neither head nor tail: side heap
	if len(e.side) != 2 {
		t.Fatalf("side heap holds %d events, want 2", len(e.side))
	}
	e.At(Time(time.Millisecond), rec) // far below: base's tick spills to far
	if len(e.side) != 0 || len(e.far) == 0 {
		t.Fatalf("after far re-anchor: side %d, far %d; want 0, >0", len(e.side), len(e.far))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	checkFireOrder(t, log, []Time{Time(time.Millisecond), near, near + 10, near + 30, near + 50,
		base + 100, base + 200, base + 300})
}

// TestSideHeapRefill leaves a live and a cancelled event in the side heap
// with the rest of the queue in the far heap: the drain must dispatch the
// live one, drop the husk before the cursor leaves the tick, and refill the
// window from the far heap with nothing left behind.
func TestSideHeapRefill(t *testing.T) {
	e := NewEngine()
	var log []Time
	rec := recordAt(e, &log)
	base := Time(tickOf(Time(time.Millisecond)) << bucketShift)
	e.At(base+100, rec)
	e.At(base+400, rec)
	e.At(base+200, rec)
	husk := e.AfterFunc(time.Duration(base+300), rec) // the clock is at zero
	if len(e.side) != 2 {
		t.Fatalf("side heap holds %d events, want 2", len(e.side))
	}
	husk.Stop()
	far := base + Time(5*time.Millisecond)
	e.At(far, rec)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	checkFireOrder(t, log, []Time{base + 100, base + 200, base + 400, far})
	if e.nbucket != 0 || len(e.side) != 0 || e.Pending() != 0 || len(e.free) != 5 {
		t.Fatalf("after drain: nbucket %d, side %d, pending %d, free %d; want 0, 0, 0, 5",
			e.nbucket, len(e.side), e.Pending(), len(e.free))
	}
}

// TestClockNeverRunsBackwards checks the monotone-clock assertion: a
// queue that hands back an event before now panics instead of reordering
// the simulation.
func TestClockNeverRunsBackwards(t *testing.T) {
	e := NewEngine()
	e.At(Time(time.Microsecond), func() {})
	if !e.Step() {
		t.Fatal("no event fired")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dispatching an event before now did not panic")
		}
	}()
	e.fireEvent(&event{at: 1, fn: func() {}})
}
