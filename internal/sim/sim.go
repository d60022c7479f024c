// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an ordered event queue. Simulated
// threads of execution ("procs", see Proc) are cooperative goroutines that
// run one at a time: exactly one proc (or event callback) executes at any
// instant, and control returns to the engine whenever a proc blocks in
// virtual time (Sleep, Cond.Wait, Resource.Acquire, ...). This serialization
// makes simulations fully deterministic and race-free while letting
// simulated code read like ordinary imperative Go.
//
// All timestamps are of type Time (virtual nanoseconds since the start of
// the simulation); durations use time.Duration. Executing Go code costs zero
// virtual time — time advances only through explicit waits and scheduled
// events, which is the standard LogGP-style simulation discipline used by
// the rest of this repository.
package sim

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts the timestamp to the duration elapsed since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the timestamp in seconds since time zero.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros reports the timestamp in microseconds since time zero.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return time.Duration(t).String() }

// event is a single scheduled callback. It carries either a plain closure
// (fn) or a typed pre-bound callback (fire + arg): the typed form lets
// steady-state schedulers reuse one top-level function with a receiver
// argument instead of allocating a fresh closure per event.
type event struct {
	at        Time
	seq       uint64 // tiebreaker: FIFO among same-time events
	fn        func()
	fire      func(Time, any)
	arg       any
	next      *event // intrusive link: ring / bucket FIFO chains
	cancelled bool
	queued    bool // in some queue tier; false once popped or recycled
}

// eventLess orders events by (at, seq): time order with FIFO tie-break.
// It is the single comparison used by all three queue tiers, which is what
// keeps cross-tier dispatch order identical to a flat priority queue.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Calendar-queue geometry. The near window is numBuckets ticks of
// 2^bucketShift nanoseconds each: with 2.048 µs ticks and 256 buckets the
// window spans ~524 µs, which covers the LogGP o/L/g steps, CQ notify
// latencies, and flow-burst gaps that dominate steady-state scheduling
// (all µs-scale), while ms-scale δ-timers and compute sleeps overflow to
// the far heap and migrate into the window as the clock approaches them.
const (
	bucketShift = 11
	numBuckets  = 256
	bucketMask  = numBuckets - 1
)

// tickOf maps a timestamp to its calendar tick.
func tickOf(t Time) int64 { return int64(t) >> bucketShift }

// DeadlockError is returned by Run when the event queue drains while
// non-daemon procs are still parked: nothing can ever wake them.
type DeadlockError struct {
	// Procs lists the name and park reason of each stuck proc.
	Procs []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d proc(s) parked with no pending events: %v", len(e.Procs), e.Procs)
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
//
// The event queue is a three-tier calendar queue specialized to *event
// (no container/heap, no interface dispatch, no per-push any-boxing):
//
//   - ring: a FIFO of events scheduled at exactly Now() — wakeups, yields
//     and handoffs dispatched from inside a callback bypass ordering
//     entirely (append-tail/pop-head on an intrusive list, O(1)).
//   - buckets: a ring of numBuckets per-tick buckets covering the near
//     window [anchor, anchor+numBuckets) ticks. Each bucket is an
//     intrusive chain through the events themselves (no per-slot slice
//     storage, so steady state touches no allocator at all), and no insert
//     ever walks it: an event that does not precede the tail is appended,
//     one that precedes the head is prepended (both keep the chain sorted
//     by (at, seq)), and any other is appended and marks the bucket dirty.
//     When the drain cursor reaches a dirty bucket, next sorts its chain
//     once. Inserts into the tick being drained that are neither tail nor
//     head go to side, a 4-ary min-heap, and dispatch takes the smaller of
//     the chain head and the side top. This is a ladder queue's discipline:
//     unsorted rungs, ordered lazily at dequeue.
//   - far: a monomorphic 4-ary min-heap ordered by (at, seq) for events
//     beyond the window; they migrate into the buckets in batches when
//     the window drains and re-anchors (refill).
//
// Cancellation is lazy: Timer.Stop marks the event and the queue skips and
// recycles it whenever a scan encounters it, so Stop is O(1) in all tiers.
type Engine struct {
	now     Time
	seq     uint64
	free    []*event // recycled event structs (see alloc/recycle)
	pending int      // live (scheduled, non-cancelled) events — O(1) Pending
	live    map[*Proc]struct{}
	running *Proc
	err     error
	// procFree recycles Proc shells (struct + coroutine) of exited procs,
	// so a Spawn on a free shell starts no goroutine. Run stops the free
	// shells' coroutines on return (stopFree); see Spawn.
	procFree []*Proc

	// shard links the engine to its ShardSet when it runs as one shard of
	// a conservative parallel simulation (see shard.go); nil for serial
	// engines. shardID is the engine's index within the set.
	shard   *ShardSet
	shardID int
	// winEnd is the exclusive upper bound of the shard window the engine is
	// currently executing (runWindow). It is written by the worker that
	// claimed the shard before the window starts and may be pulled earlier
	// by the engine's own cross-shard posts (the dynamic self-cap in
	// ShardSet.post), so it is only ever touched from the owning worker.
	winEnd Time

	// Tier 0: same-instant dispatch ring (all entries have at == now).
	ringH *event
	ringT *event

	// Tier 1: near-window calendar buckets (chain head/tail, an occupancy
	// count and a dirty flag per slot). anchor is the first tick of the
	// window; cursor is the next tick to drain (slots for ticks in [anchor,
	// cursor) are empty). A clean chain is sorted by (at, seq); a dirty one
	// is not. side holds the cursor tick's events that are not in its
	// chain, and only while that chain is clean; it is empty whenever the
	// cursor moves. blen and nbucket count side entries with their tick and
	// include cancelled events awaiting lazy removal.
	buckets [numBuckets]*event
	tails   [numBuckets]*event
	blen    [numBuckets]int32
	dirty   [numBuckets]bool
	side    eventHeap
	nbucket int
	anchor  int64
	cursor  int64
	// nowClean records that the current instant's bucket holds no event
	// at exactly now, so ring pops can skip the bucket probe until the
	// clock advances (inserts at now always go to the ring, so the flag
	// stays valid while now stands still).
	nowClean bool

	// Tier 2: far-future monomorphic 4-ary min-heap.
	far eventHeap

	// stepped counts events executed by this engine; the delta since
	// flushedAt is folded into the process-wide totalEvents counter when
	// Run/RunUntil return, so the hot loop stays free of atomic
	// operations.
	stepped   uint64
	flushedAt uint64

	// Scheduler placement counters (see SchedStats): how many insertions
	// hit each tier and the largest bucket ever observed. Flushed into
	// the process-wide totals alongside stepped.
	statRing      uint64
	statBucket    uint64
	statFar       uint64
	statMaxBucket int
	flushedSched  SchedStats
}

// initialFarCap pre-sizes the far and side heaps: typical simulations keep
// hundreds of in-flight events, so starting at a real capacity avoids the
// early growth reallocations on every run.
const initialFarCap = 64

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{
		live: make(map[*Proc]struct{}),
		far:  make(eventHeap, 0, initialFarCap),
		side: make(eventHeap, 0, initialFarCap),
	}
}

// totalEvents accumulates executed-event counts across all engines in the
// process (parallel sweeps run many engines at once).
var totalEvents atomic.Uint64

// Process-wide scheduler-placement totals, flushed with the same cadence
// as totalEvents.
var (
	totalRing      atomic.Uint64
	totalBucket    atomic.Uint64
	totalFar       atomic.Uint64
	totalMaxBucket atomic.Int64
)

// TotalEvents reports the number of events executed by all engines in this
// process whose Run/RunUntil has returned. It is safe for concurrent use
// and is intended for coarse events/sec throughput reporting.
func TotalEvents() uint64 { return totalEvents.Load() }

// SchedStats reports where scheduled events landed in the calendar queue:
// the same-instant ring, the near-window buckets, or the far heap
// (overflow beyond the bucket window), plus the largest single-bucket
// occupancy observed. Ratios between the tiers tell whether the window
// geometry matches the workload.
type SchedStats struct {
	Ring      uint64 // insertions dispatched through the same-instant ring
	Bucket    uint64 // insertions into the near-window calendar buckets
	Far       uint64 // insertions that overflowed to the far heap
	MaxBucket int    // peak single-tick occupancy (chain plus side heap)
}

// TotalSchedStats reports the process-wide scheduler-placement totals for
// all engines whose Run/RunUntil has returned. Safe for concurrent use.
func TotalSchedStats() SchedStats {
	return SchedStats{
		Ring:      totalRing.Load(),
		Bucket:    totalBucket.Load(),
		Far:       totalFar.Load(),
		MaxBucket: int(totalMaxBucket.Load()),
	}
}

// Events reports the number of events this engine has executed so far.
func (e *Engine) Events() uint64 { return e.stepped }

// SchedStats reports this engine's scheduler-placement counters.
func (e *Engine) SchedStats() SchedStats {
	return SchedStats{Ring: e.statRing, Bucket: e.statBucket, Far: e.statFar, MaxBucket: e.statMaxBucket}
}

// flushStats folds the engine's local counters into the global totals.
func (e *Engine) flushStats() {
	if d := e.stepped - e.flushedAt; d != 0 {
		totalEvents.Add(d)
		e.flushedAt = e.stepped
	}
	if d := e.statRing - e.flushedSched.Ring; d != 0 {
		totalRing.Add(d)
		e.flushedSched.Ring = e.statRing
	}
	if d := e.statBucket - e.flushedSched.Bucket; d != 0 {
		totalBucket.Add(d)
		e.flushedSched.Bucket = e.statBucket
	}
	if d := e.statFar - e.flushedSched.Far; d != 0 {
		totalFar.Add(d)
		e.flushedSched.Far = e.statFar
	}
	for {
		cur := totalMaxBucket.Load()
		if int64(e.statMaxBucket) <= cur || totalMaxBucket.CompareAndSwap(cur, int64(e.statMaxBucket)) {
			break
		}
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled (non-cancelled) events. It is
// O(1): the engine maintains a live-event counter instead of scanning the
// queue.
func (e *Engine) Pending() int { return e.pending }

// alloc pops a recycled event struct (or allocates one) and enqueues it at
// time at. Scheduling in the past is an engine-usage bug and panics.
//
// Event structs come from a per-engine free list: once an event has fired
// (or been dropped as cancelled) it is recycled, so steady-state simulation
// does one event allocation per *concurrent* event rather than one per
// scheduled event. The seq field doubles as an identity generation —
// Timer.Stop compares it to detect recycled events.
//
//partib:hotpath
func (e *Engine) alloc(at Time) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now)) //partlint:allow hotpathalloc fatal engine-usage bug
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(event) //partlint:allow hotpathalloc free-list miss; steady state recycles
	}
	ev.at, ev.seq, ev.cancelled = at, e.seq, false
	e.seq++
	e.pending++
	e.insert(ev)
	return ev
}

// insert places the event in the tier matching its distance from now.
//
//partib:hotpath
func (e *Engine) insert(ev *event) {
	ev.queued = true
	if ev.at == e.now {
		// Same-instant dispatch: events created at the current instant
		// are younger (larger seq) than anything already queued for this
		// instant, so a plain FIFO ring preserves (at, seq) order.
		ev.next = nil
		if e.ringT == nil {
			e.ringH = ev
		} else {
			e.ringT.next = ev
		}
		e.ringT = ev
		e.statRing++
		return
	}
	tk := tickOf(ev.at)
	if e.nbucket == 0 && len(e.far) == 0 && e.ringH == nil {
		// Queue is empty: re-anchor the window at the new event so it
		// lands in a bucket regardless of how far the old window drifted.
		e.anchor, e.cursor = tk, tk
	}
	switch {
	case tk < e.anchor:
		// The clock (via RunUntil's idle advance) can sit before the
		// window when the window was re-anchored at a far event; a new
		// near event must move the window back. Rare, never on the
		// callback hot path.
		e.reanchor(tk)
		e.bucketPut(tk, ev)
	case tk < e.anchor+numBuckets:
		e.bucketPut(tk, ev)
	default:
		e.far.push(ev)
		e.statFar++
	}
}

// bucketPut inserts the event into its tick's bucket (see relink).
//
//partib:hotpath
func (e *Engine) bucketPut(tk int64, ev *event) {
	e.relink(tk, ev)
	i := int(tk & bucketMask)
	if n := int(e.blen[i]); n > e.statMaxBucket {
		e.statMaxBucket = n
	}
	if tk < e.cursor {
		// The drain cursor had advanced past this (then-empty) tick;
		// pull it back so the new event is seen.
		e.sideFlush()
		e.cursor = tk
	}
	e.statBucket++
}

// reanchor moves the bucket window to start at tick tk, re-placing any
// bucketed events (those beyond the new window spill to the far heap).
// Chains are relinked in place; nothing allocates.
func (e *Engine) reanchor(tk int64) {
	e.sideFlush()
	var chain *event
	if e.nbucket > 0 {
		for i := range e.buckets {
			for ev := e.buckets[i]; ev != nil; {
				nxt := ev.next
				ev.next = chain
				chain = ev
				ev = nxt
			}
			e.buckets[i], e.tails[i], e.blen[i], e.dirty[i] = nil, nil, 0, false
		}
		e.nbucket = 0
	}
	e.anchor, e.cursor = tk, tk
	for ev := chain; ev != nil; {
		nxt := ev.next
		if mtk := tickOf(ev.at); mtk < tk+numBuckets {
			e.relink(mtk, ev)
		} else {
			e.far.push(ev)
		}
		ev = nxt
	}
}

// relink inserts an already-queued event into its tick's bucket in O(1).
// An event that does not precede the chain tail is appended and one that
// precedes the head is prepended, which keeps a clean chain sorted and
// covers the dominant monotone orders (same-instant bursts, LogGP step
// trains, refill migration). Any other event goes to the side heap when
// its tick is the cursor's and the chain is clean, and otherwise is
// appended and marks the bucket dirty for next to sort. It does not touch
// the placement stats (reanchor and refill migrations reuse it).
//
//partib:hotpath
func (e *Engine) relink(tk int64, ev *event) {
	i := int(tk & bucketMask)
	switch t := e.tails[i]; {
	case t == nil:
		ev.next = nil
		e.buckets[i] = ev
		e.tails[i] = ev
	case !eventLess(ev, t):
		ev.next = nil
		t.next = ev
		e.tails[i] = ev
	case eventLess(ev, e.buckets[i]):
		ev.next = e.buckets[i]
		e.buckets[i] = ev
	case tk == e.cursor && !e.dirty[i]:
		e.side.push(ev)
	default:
		ev.next = nil
		t.next = ev
		e.tails[i] = ev
		e.dirty[i] = true
	}
	e.blen[i]++
	e.nbucket++
}

// sideFlush returns the side heap's events to the cursor tick's chain and
// marks it dirty, so next sorts them in when the cursor comes back.
// Every cursor move except next's advance past a drained tick calls it
// first; refill and the empty-queue re-anchor need not, because side
// entries count in nbucket and both run only when nbucket is zero. The
// chain is never empty here: the cursor only moves back while the clock is
// still before its tick, so none of the tick's events has fired; side
// entries only join a chain of two or more, and next promotes the side top
// when it drops the chain's last husk.
func (e *Engine) sideFlush() {
	if len(e.side) == 0 {
		return
	}
	i := int(e.cursor & bucketMask)
	t := e.tails[i]
	for j, ev := range e.side {
		t.next = ev
		t = ev
		e.side[j] = nil
	}
	t.next = nil
	e.tails[i] = t
	e.side = e.side[:0]
	e.dirty[i] = true
}

// sortBucket sorts the dirty bucket at the cursor once, by (at, seq): a
// bottom-up natural merge sort on the intrusive links, whose ascending runs
// merge through bins[k] (nil, or a chain merged from 2^k runs), so nothing
// allocates. Cancelled events are recycled on the way.
//
//partib:hotpath
func (e *Engine) sortBucket(i int) {
	var bins [32]*event
	var last *event // the largest event seen: the sorted chain's tail
	for ev := e.buckets[i]; ev != nil; {
		var run, tail *event
		for ev != nil {
			nxt := ev.next
			if ev.cancelled {
				e.blen[i]--
				e.nbucket--
				e.recycle(ev)
			} else if tail == nil {
				run, tail = ev, ev
			} else if !eventLess(ev, tail) {
				tail.next = ev
				tail = ev
			} else {
				break
			}
			ev = nxt
		}
		if tail == nil {
			break
		}
		tail.next = nil
		if last == nil || eventLess(last, tail) {
			last = tail
		}
		k := 0
		for ; bins[k] != nil; k++ {
			run = mergeChains(bins[k], run)
			bins[k] = nil
		}
		bins[k] = run
	}
	var head *event
	for _, b := range bins {
		if b != nil {
			head = mergeChains(b, head)
		}
	}
	e.buckets[i], e.tails[i] = head, last
	e.dirty[i] = false
}

// mergeChains merges two sorted chains into one.
//
//partib:hotpath
func mergeChains(a, b *event) *event {
	var head *event
	link := &head
	for a != nil && b != nil {
		if eventLess(b, a) {
			*link = b
			link, b = &b.next, b.next
		} else {
			*link = a
			link, a = &a.next, a.next
		}
	}
	if a != nil {
		*link = a
	} else {
		*link = b
	}
	return head
}

// eventHeap is a 4-ary min-heap of events ordered by eventLess, with
// hole-based sifts and monomorphic comparisons (no container/heap
// interface dispatch). It serves both the far tier and the side heap.
type eventHeap []*event

// push inserts the event (hole-based sift-up).
//
//partib:hotpath
func (h *eventHeap) push(ev *event) {
	s := append(*h, ev) //partlint:allow hotpathalloc amortized; both heaps are pre-sized
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
	*h = s
}

// pop removes and returns the heap minimum (hole-based sift-down).
//
//partib:hotpath
func (h *eventHeap) pop() *event {
	s := *h
	n := len(s) - 1
	root := s[0]
	last := s[n]
	s[n] = nil
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if eventLess(s[j], s[m]) {
					m = j
				}
			}
			if !eventLess(s[m], last) {
				break
			}
			s[i] = s[m]
			i = m
		}
		s[i] = last
	}
	*h = s
	return root
}

// refill re-anchors the empty bucket window at the earliest far event and
// migrates every far event inside the new window into its bucket (in heap
// order, so each lands with a tail append). Must only be called when ring
// and buckets are empty (the far heap is otherwise never consulted: every
// bucketed event precedes every far event).
//
//partib:hotpath
func (e *Engine) refill() {
	tk := tickOf(e.far[0].at)
	e.anchor, e.cursor = tk, tk
	end := tk + numBuckets
	for len(e.far) > 0 && tickOf(e.far[0].at) < end {
		ev := e.far.pop()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		e.relink(tickOf(ev.at), ev)
	}
}

// ringPop removes and returns the ring head.
//
//partib:hotpath
func (e *Engine) ringPop() *event {
	ev := e.ringH
	e.ringH = ev.next
	if e.ringH == nil {
		e.ringT = nil
	}
	ev.next = nil
	return ev
}

// next locates the earliest live event without removing it, lazily
// recycling cancelled events and refilling the window from the far heap
// as needed. The returned slot locates the event for take: -1 means the
// ring head, otherwise the event is the head of that bucket's sorted
// chain. Returns nil when no live events remain.
//
//partib:hotpath
func (e *Engine) next() (ev *event, slot int) {
	// Drop cancelled events from the ring head so the head is live.
	for e.ringH != nil && e.ringH.cancelled {
		e.recycle(e.ringPop())
	}
	rh := e.ringH
	if rh != nil && e.nowClean {
		// No bucketed event at exactly now (verified since the last
		// clock advance), so the ring head is the global minimum.
		return rh, -1
	}
	for {
		if e.nbucket > 0 {
			// Scan the window from the drain cursor. With a live ring
			// head (at == now) only a bucketed event at exactly now can
			// precede it, so the scan is bounded to now's tick.
			limit := e.anchor + numBuckets
			if rh != nil {
				if lim := tickOf(e.now) + 1; lim < limit {
					limit = lim
				}
			}
			for e.cursor < limit {
				i := int(e.cursor & bucketMask)
				if e.dirty[i] {
					e.sortBucket(i)
				}
				// Drop cancelled chain heads in passing (lazy cancel);
				// interior cancelled events surface here as earlier
				// entries pop. sideHead does the same for the side heap
				// and moves its top to the chain head when it is earlier.
				h := e.buckets[i]
				for h != nil && h.cancelled {
					e.buckets[i] = h.next
					if h.next == nil {
						e.tails[i] = nil
					}
					e.blen[i]--
					e.nbucket--
					e.recycle(h)
					h = e.buckets[i]
				}
				if len(e.side) > 0 {
					h = e.sideHead(i, h)
				}
				if h != nil {
					if rh != nil && eventLess(rh, h) {
						e.nowClean = true
						return rh, -1
					}
					return h, i
				}
				e.cursor++
			}
		}
		if rh != nil {
			// Nothing at now in the buckets; remember that until the
			// clock moves (new at-now events always go to the ring).
			e.nowClean = true
			return rh, -1
		}
		if e.nbucket == 0 && len(e.far) == 0 {
			return nil, 0
		}
		if len(e.far) == 0 {
			// nbucket > 0 yet the window scan found nothing: impossible
			// by the window invariant (every bucketed event's tick lies
			// in [anchor, anchor+numBuckets) at or after the cursor).
			panic("sim: calendar queue lost bucketed events")
		}
		e.refill()
	}
}

// sideHead drops cancelled events from the top of the side heap and, when
// the top precedes the cursor bucket i's chain head h, makes it the head,
// which keeps the chain sorted, so take only ever pops chain heads. It
// returns the chain head.
//
//partib:hotpath
func (e *Engine) sideHead(i int, h *event) *event {
	for len(e.side) > 0 && e.side[0].cancelled {
		e.recycle(e.side.pop())
		e.blen[i]--
		e.nbucket--
	}
	if len(e.side) == 0 || (h != nil && !eventLess(e.side[0], h)) {
		return h
	}
	s := e.side.pop()
	s.next = h
	e.buckets[i] = s
	if h == nil {
		e.tails[i] = s
	}
	return s
}

// take removes the event located by next (always a chain head) from its
// tier.
//
//partib:hotpath
func (e *Engine) take(ev *event, slot int) {
	if slot < 0 {
		e.ringPop()
		return
	}
	e.buckets[slot] = ev.next
	if ev.next == nil {
		e.tails[slot] = nil
	}
	ev.next = nil
	e.blen[slot]--
	e.nbucket--
}

// fire advances the clock to the event and runs its callback.
//
//partib:hotpath
func (e *Engine) fireEvent(ev *event) {
	if ev.at != e.now {
		if ev.at < e.now {
			e.clockBackwards(ev.at)
		}
		e.now = ev.at
		e.nowClean = false
	}
	e.pending--
	fn, fire, arg := ev.fn, ev.fire, ev.arg
	e.recycle(ev)
	if fire != nil {
		fire(e.now, arg)
	} else {
		fn()
	}
	e.stepped++
}

// clockBackwards reports a queue that handed back an event before now.
// Running on would reorder the simulation silently, or hang a ShardSet
// whose window bounds assume a monotone clock.
//
//partib:coldpath
func (e *Engine) clockBackwards(at Time) {
	panic(fmt.Sprintf("sim: queue dispatched an event at %v after now %v", at, e.now))
}

// schedule enqueues the closure fn to run at time at (the cold-path API).
func (e *Engine) schedule(at Time, fn func()) *event {
	ev := e.alloc(at)
	ev.fn = fn
	return ev
}

// scheduleCall enqueues the typed callback fire(now, arg) to run at time
// at. Because fire is a shared top-level function and arg a pre-bound
// pointer, steady-state scheduling through this path allocates nothing.
//
//partib:hotpath
func (e *Engine) scheduleCall(at Time, fire func(Time, any), arg any) *event {
	ev := e.alloc(at)
	ev.fire, ev.arg = fire, arg
	return ev
}

// Post schedules the typed callback fire(now, arg) at time at on engine
// dst. On the same engine — or in a serial simulation — it is exactly
// AtCall. Across shards of a ShardSet the event goes to the pair's SPSC
// mailbox and is scheduled on dst at the next window boundary; at must
// then be at least one lookahead past the posting event (the shard set
// asserts at ≥ window end and panics otherwise — a violation means the
// lookahead bound is wrong and conservative execution is unsound).
//
//partib:hotpath
func (e *Engine) Post(dst *Engine, at Time, fire func(Time, any), arg any) {
	if dst == e || e.shard == nil || dst.shard != e.shard {
		// Same engine, serial simulation, or an engine outside the set
		// (foreign engines only appear in single-threaded tests).
		dst.scheduleCall(at, fire, arg)
		return
	}
	e.shard.post(e.shardID, dst.shardID, at, fire, arg)
}

// runWindow executes events with timestamps strictly below the engine's
// winEnd bound, leaving the clock at the last fired event (not forced to
// the bound: a shard with no event this window must keep now ≤ its next
// event so nothing schedules into the past). It is the per-shard body of
// one ShardSet hop and runs on whichever worker claimed the shard —
// exclusively, so no engine state needs synchronization. winEnd is a
// field rather than a parameter because the shard runtime's dynamic
// self-cap (ShardSet.post) may pull the bound earlier mid-window when
// this engine's own events emit cross-shard posts.
//
// The return value is the timestamp of the earliest still-pending event
// (false when the queue is empty): the calendar queue has already located
// it to decide the window is over, so the shard barrier gets every
// engine's next-event time for free instead of re-scanning the queue.
//
//partib:hotpath
func (e *Engine) runWindow() (Time, bool) {
	for e.err == nil {
		ev, slot := e.next()
		if ev == nil {
			return 0, false
		}
		if ev.at >= e.winEnd {
			return ev.at, true
		}
		e.take(ev, slot)
		e.fireEvent(ev)
	}
	return 0, false
}

// nextAt reports the timestamp of the earliest live event without
// dispatching it. The shard runtime uses it when (re)building window
// bounds outside the runWindow fast path.
func (e *Engine) nextAt() (Time, bool) {
	ev, _ := e.next()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// recycle returns a popped event to the free list. Callback and argument
// references are dropped so captured state can be collected.
//
//partib:hotpath
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.fire, ev.arg, ev.next = nil, nil, nil, nil
	ev.queued = false
	e.free = append(e.free, ev) //partlint:allow hotpathalloc amortized free-list growth
}

// At schedules fn to run at the absolute virtual time at.
func (e *Engine) At(at Time, fn func()) { e.schedule(at, fn) }

// After schedules fn to run d from now. Negative d is treated as zero.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now.Add(d), fn)
}

// AtCall schedules the typed callback fire(now, arg) at the absolute
// virtual time at. It is the allocation-free variant of At: fire should be
// a top-level function and arg the pre-bound receiver (a pointer, so the
// any-boxing does not allocate), letting hot paths schedule without
// constructing a closure per event.
func (e *Engine) AtCall(at Time, fire func(Time, any), arg any) {
	e.scheduleCall(at, fire, arg)
}

// AfterCall schedules fire(now, arg) to run d from now, the
// allocation-free variant of After. Negative d is treated as zero.
func (e *Engine) AfterCall(d time.Duration, fire func(Time, any), arg any) {
	if d < 0 {
		d = 0
	}
	e.scheduleCall(e.now.Add(d), fire, arg)
}

// Timer is a cancellable scheduled callback, analogous to time.Timer.
type Timer struct {
	e   *Engine
	ev  *event
	seq uint64 // identity of ev at creation; stale once ev is recycled
	at  Time
}

// AfterFunc schedules fn to run d from now and returns a Timer that can
// cancel it.
func (e *Engine) AfterFunc(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	ev := e.schedule(e.now.Add(d), fn)
	return &Timer{e: e, ev: ev, seq: ev.seq, at: ev.at}
}

// Stop cancels the timer. It reports whether the callback was prevented
// from running (false if it already ran or was already stopped). Stop is
// O(1) in every tier: the event is only marked and the queue skips and
// recycles it when a scan next encounters it (lazy cancellation).
//
// The seq guard below also protects sharded runs: once the timer's event
// has fired and been recycled, the very next mailbox drain may re-arm the
// same event struct with a cross-shard post migrated from another shard
// (ShardSet.drain schedules through the same free list). The (ev, seq)
// pair identifies the original occupant, so a stale Stop is a no-op for
// the migrated event rather than a silent cancellation of someone else's
// timeline.
func (t *Timer) Stop() bool {
	// ev is recycled after firing; a seq mismatch means this slot now
	// belongs to a different, later event that must not be cancelled.
	if t.ev == nil || t.ev.seq != t.seq || t.ev.cancelled || !t.ev.queued {
		return false
	}
	t.ev.cancelled = true
	t.e.pending--
	return true
}

// When returns the virtual time at which the timer fires.
func (t *Timer) When() Time { return t.at }

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
//
//partib:hotpath
func (e *Engine) Step() bool {
	ev, slot := e.next()
	if ev == nil {
		return false
	}
	e.take(ev, slot)
	e.fireEvent(ev)
	return true
}

// Run executes events until the queue drains or a proc fails. It returns
// the first proc error (a propagated panic), a DeadlockError if non-daemon
// procs remain parked with nothing to wake them, or nil. On return it
// stops the coroutines of free proc shells; procs still parked keep theirs.
func (e *Engine) Run() error {
	defer e.stopFree()
	defer e.flushStats()
	for e.err == nil && e.Step() {
	}
	if e.err != nil {
		return e.err
	}
	return e.checkDeadlock()
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// It returns the same errors as Run, except that parked procs are not a
// deadlock if events remain beyond t. Unlike Run it keeps free proc
// shells' coroutines for the next Spawn.
func (e *Engine) RunUntil(t Time) error {
	defer e.flushStats()
	for e.err == nil {
		ev, slot := e.next()
		if ev == nil || ev.at > t {
			break
		}
		e.take(ev, slot)
		e.fireEvent(ev)
	}
	if e.err != nil {
		return e.err
	}
	if e.now < t {
		e.now = t
		e.nowClean = false
	}
	return nil
}

// stuckProcs lists parked non-daemon procs (name and park reason),
// unsorted; callers sort after aggregating across shards.
func (e *Engine) stuckProcs() []string {
	var stuck []string
	for p := range e.live {
		if p.daemon || p.done {
			continue
		}
		stuck = append(stuck, fmt.Sprintf("%s (%s)", p.name, p.parkReason))
	}
	return stuck
}

// checkDeadlock reports parked non-daemon procs when no events remain.
func (e *Engine) checkDeadlock() error {
	stuck := e.stuckProcs()
	if len(stuck) == 0 {
		return nil
	}
	sort.Strings(stuck)
	return &DeadlockError{Procs: stuck}
}

// fail records a proc failure; Run stops at the next step boundary.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Err returns the recorded proc failure, if any.
func (e *Engine) Err() error { return e.err }
