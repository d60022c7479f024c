//go:build go1.23

// The build line lifts this file to Go 1.23 for iter.Pull (runtime
// coroutines). go.mod stays at go 1.22 because raising it breaks the
// nested simbench module, whose own go.mod would need updating.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// Proc is a simulated thread of execution: a coroutine that the engine
// resumes one at a time. Code running inside a proc may block in virtual
// time with Sleep, Cond.Wait, Resource.Acquire and friends; while blocked,
// other procs and events run. Methods on Proc must only be called from the
// proc's own body function.
type Proc struct {
	e    *Engine
	name string
	// fn is the body the shell runs on its next pass (see loop).
	fn func(p *Proc)
	// next and stop drive the shell's coroutine (iter.Pull over loop);
	// yield, saved by loop, switches back to the engine. The coroutine
	// outlives its bodies. All three are nil while the shell has none:
	// Run stops a free shell's (stopFree) and the next Spawn makes one.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// waiter is the proc's condition-variable wait record. A parked proc
	// waits on at most one Cond at a time, so embedding the record here
	// makes Cond.Wait allocation-free (see Cond.Wait for the lifetime
	// invariant).
	waiter     condWaiter
	done       bool
	daemon     bool
	parkReason string
}

// fireDispatch is the typed-event callback that resumes a parked proc. All
// proc scheduling (Spawn, Sleep, cond wakeups, resource handoff) goes
// through this one top-level function with the proc as the pre-bound
// argument, so rescheduling a proc never allocates.
//
//partib:hotpath
func fireDispatch(_ Time, arg any) { arg.(*Proc).dispatch() }

// errProcExit is the sentinel panic value used by Exit for early return.
type procExit struct{}

// ProcError wraps a panic that escaped a proc body.
type ProcError struct {
	Proc  string
	Value any
	Stack string
}

func (e *ProcError) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v\n%s", e.Proc, e.Value, e.Stack)
}

// Spawn creates a proc named name running fn, scheduled to start at the
// current virtual time (after already-pending same-time events).
//
// Proc shells (the struct and its coroutine) are recycled once a proc's
// body returns, so fork-join workloads that spawn short-lived worker procs
// per round neither allocate nor start a goroutine in steady state: Spawn
// only stores fn for the shell's coroutine, creating one if the shell has
// none. The returned *Proc is therefore only meaningful until the
// body returns — callers must not retain it past proc exit (no caller in
// this codebase does; procs interact with their own *Proc argument).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.procFree); n > 0 {
		p = e.procFree[n-1]
		e.procFree[n-1] = nil
		e.procFree = e.procFree[:n-1]
		p.name = name
		p.done = false
		p.daemon = false
	} else {
		p = &Proc{e: e, name: name}
		p.waiter.p = p
	}
	p.fn = fn
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.loop)
	}
	e.live[p] = struct{}{}
	e.scheduleCall(e.now, fireDispatch, p)
	return p
}

// loop is the shell's coroutine body: each pass runs the pending body to
// its end, then yields once so dispatch can recycle the shell. It returns
// only when stop makes that yield report false.
//
//partib:hotpath
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.runBody()
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody runs the pending body; endBody does the bookkeeping however the
// body ends.
func (p *Proc) runBody() {
	defer p.endBody()
	fn := p.fn
	p.fn = nil
	fn(p)
}

// endBody marks the proc done and turns a panic that escaped the body
// (other than Exit's) into the engine's ProcError.
func (p *Proc) endBody() {
	if r := recover(); r != nil {
		p.panicked(r)
	}
	p.done = true
	delete(p.e.live, p)
}

// panicked records a body's panic as the engine's failure. Off the
// per-event budget: the run stops at the next step.
//
//partib:coldpath
func (p *Proc) panicked(r any) {
	if _, isExit := r.(procExit); !isExit {
		p.e.fail(&ProcError{Proc: p.name, Value: r, Stack: string(debug.Stack())})
	}
}

// dispatch switches to the proc's coroutine and returns when the proc
// parks or its body ends. It runs on the engine's event loop.
//
//partib:hotpath
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	prev := p.e.running
	p.e.running = p
	p.next()
	p.e.running = prev
	if p.done {
		// The coroutine is parked at loop's yield after the body: the
		// shell is dead and safe to recycle. Every wake is guarded by a
		// consumed-once flag (cond waiter done, timer seq), so no stale
		// dispatch event can still reference this proc.
		p.e.procFree = append(p.e.procFree, p) //partlint:allow hotpathalloc amortized free-list growth
	}
}

// park returns control to the engine until the proc is dispatched again.
//
//partib:hotpath
func (p *Proc) park(reason string) {
	p.parkReason = reason
	p.yield(struct{}{})
	p.parkReason = ""
}

// stopFree ends the coroutines of the engine's free shells, so an engine
// dropped after Run leaves no parked goroutine behind. The shells stay on
// the free list; Spawn gives a reused one a new coroutine.
func (e *Engine) stopFree() {
	for _, p := range e.procFree {
		if p.stop != nil {
			p.stop()
			p.next, p.stop, p.yield = nil, nil, nil
		}
	}
}

// Name returns the proc's name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// SetDaemon marks the proc as a daemon: it may remain parked when the
// simulation ends without triggering a DeadlockError. Use for background
// service loops whose lifetime matches the whole simulation.
func (p *Proc) SetDaemon() { p.daemon = true }

// Done reports whether the proc's body has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep blocks the proc for d of virtual time. Non-positive d yields the
// processor (the proc is rescheduled behind already-pending same-time
// events) without advancing the clock.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.e.scheduleCall(p.e.now.Add(d), fireDispatch, p)
	p.park("sleeping")
}

// Yield reschedules the proc behind all currently pending same-time events,
// giving other runnable procs a chance to execute at this instant.
func (p *Proc) Yield() { p.Sleep(0) }

// Exit terminates the proc immediately, as if its body had returned.
func (p *Proc) Exit() { panic(procExit{}) }
