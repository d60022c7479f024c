package sim

import (
	"errors"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(3*time.Millisecond) {
		t.Fatalf("woke at %v, want 3ms", woke)
	}
}

func TestProcsInterleaveByTime(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1 * time.Millisecond)
		trace = append(trace, "a1")
		p.Sleep(2 * time.Millisecond) // wakes at 3ms
		trace = append(trace, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		trace = append(trace, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestYieldRunsBehindPendingEvents(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("first", func(p *Proc) {
		trace = append(trace, "first-before-yield")
		p.Yield()
		trace = append(trace, "first-after-yield")
	})
	e.Spawn("second", func(p *Proc) {
		trace = append(trace, "second")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first-before-yield", "second", "first-after-yield"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bomb", func(p *Proc) {
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil for panicking proc")
	}
	var pe *ProcError
	if !errors.As(err, &pe) {
		t.Fatalf("error type %T, want *ProcError", err)
	}
	if pe.Proc != "bomb" || pe.Value != "boom" {
		t.Fatalf("ProcError = %+v", pe)
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("error string %q missing panic value", pe.Error())
	}
}

func TestProcExitTerminatesCleanly(t *testing.T) {
	e := NewEngine()
	reached := false
	var p1 *Proc
	p1 = e.Spawn("exiter", func(p *Proc) {
		p.Exit()
		reached = true // unreachable
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("code after Exit ran")
	}
	if !p1.Done() {
		t.Fatal("proc not marked done after Exit")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("stuck", func(p *Proc) {
		c.Wait(p) // nobody will ever signal
	})
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Procs) != 1 || !strings.Contains(de.Procs[0], "stuck") {
		t.Fatalf("DeadlockError.Procs = %v", de.Procs)
	}
}

func TestDaemonProcsDoNotDeadlock(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("service", func(p *Proc) {
		p.SetDaemon()
		for {
			c.Wait(p)
		}
	})
	e.Spawn("work", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("daemon proc caused error: %v", err)
	}
}

func TestProcAccessors(t *testing.T) {
	e := NewEngine()
	e.Spawn("named", func(p *Proc) {
		if p.Name() != "named" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine mismatch")
		}
		if p.Now() != 0 {
			t.Errorf("Now = %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsScale(t *testing.T) {
	e := NewEngine()
	const n = 2000
	count := 0
	for i := 0; i < n; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(i%7) * time.Microsecond)
			count++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("completed %d procs, want %d", count, n)
	}
}

// TestProcPanicOnRecycledShell checks that a panic in the second body run
// by one shell (and one coroutine) still surfaces as a ProcError, and that
// the shell goes back on the free list once.
func TestProcPanicOnRecycledShell(t *testing.T) {
	e := NewEngine()
	first := e.Spawn("one", func(p *Proc) {})
	var second *Proc
	e.After(time.Microsecond, func() {
		second = e.Spawn("two", func(p *Proc) { panic("boom") })
	})
	err := e.Run()
	var pe *ProcError
	if !errors.As(err, &pe) || pe.Proc != "two" || pe.Value != "boom" {
		t.Fatalf("Run = %v, want ProcError from proc two", err)
	}
	if second != first {
		t.Fatalf("second body did not run on the recycled shell (%p vs %p)", second, first)
	}
	if len(e.procFree) != 1 || e.procFree[0] != first {
		t.Fatalf("procFree = %v, want the one shell once", e.procFree)
	}
}

// TestProcExitOnRecycledShell checks that Exit in a recycled shell's body
// ends only that body: the shell's next body runs normally.
func TestProcExitOnRecycledShell(t *testing.T) {
	e := NewEngine()
	first := e.Spawn("one", func(p *Proc) {})
	var trace []string
	e.After(time.Microsecond, func() {
		e.Spawn("exiter", func(p *Proc) {
			trace = append(trace, "exiter")
			p.Exit()
			trace = append(trace, "after-exit") // unreachable
		})
	})
	e.After(2*time.Microsecond, func() {
		e.Spawn("three", func(p *Proc) {
			if p != first {
				t.Errorf("third body got %p, want the recycled shell %p", p, first)
			}
			p.Sleep(time.Microsecond)
			trace = append(trace, "three")
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(trace, ",") != "exiter,three" {
		t.Fatalf("trace = %v, want [exiter three]", trace)
	}
	if len(e.procFree) != 1 {
		t.Fatalf("procFree holds %d shells, want 1", len(e.procFree))
	}
}

// TestProcGoexitEndsRunCaller pins where runtime.Goexit in a body goes: the
// body's coroutine passes it on to the goroutine that called Run, which
// ends (running its defers) instead of hanging or returning.
func TestProcGoexitEndsRunCaller(t *testing.T) {
	returned := false
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		e := NewEngine()
		e.Spawn("goexit", func(p *Proc) { runtime.Goexit() })
		_ = e.Run()
		returned = true
	}()
	select {
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("Run caller hung after runtime.Goexit in a proc body")
	}
	if returned {
		t.Fatal("Run returned after a proc body called runtime.Goexit")
	}
}

// TestProcCoroutinesDoNotLeak checks that dropped engines leave no parked
// goroutine behind: Engine.Run and ShardSet.Run stop the coroutines of
// their free shells, so no goroutine running this package's code outlives
// many serial and two-shard fork-join runs. Only such goroutines are
// counted: goroutines of the runtime or of other tests come and go on
// their own schedule and are not this package's leak.
func TestProcCoroutinesDoNotLeak(t *testing.T) {
	before := simGoroutines()
	for i := 0; i < 200; i++ {
		e := NewEngine()
		forkJoin(e, 3, 8)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		s := NewShardSet(2, time.Microsecond)
		for _, e := range s.Engines() {
			forkJoin(e, 3, 8)
		}
		if err := s.Run(2); err != nil {
			t.Fatal(err)
		}
	}
	// The fleet's workers are joined before ShardSet.Run returns but may
	// still be on their way out, and a loaded host can keep them off a
	// CPU for a while: poll on a deadline rather than a fixed number of
	// yields.
	var extra []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		extra = extra[:0]
		for id, stack := range simGoroutines() {
			if _, ok := before[id]; !ok {
				extra = append(extra, stack)
			}
		}
		if len(extra) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if n := len(extra); n > 0 {
		sort.Strings(extra)
		t.Fatalf("%d goroutines running this package's code outlived 250 runs; the first:\n\n%s", n, strings.Join(extra[:min(n, 5)], "\n\n"))
	}
}

// simGoroutines returns the stacks of the live goroutines with a frame in
// this package, keyed by their "goroutine N" header.
func simGoroutines() map[string]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "repro/internal/sim.") {
			id, _, _ := strings.Cut(g, " [")
			out[id] = g
		}
	}
	return out
}
