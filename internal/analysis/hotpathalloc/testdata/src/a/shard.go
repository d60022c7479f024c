package a

import "sync/atomic"

// This file models the conservative-shard hot path: the per-window
// advance loop and the cross-shard mailbox post. The advance loop must be
// allocation-free; the mailbox append is the one sanctioned amortized
// growth (buffers are reused round over round) and must carry a waiver.

type shardPost struct {
	at  int64
	arg *item
}

type shardMailbox struct {
	buf  []shardPost
	sent uint64
}

//partib:hotpath
func (m *shardMailbox) post(at int64, arg *item) {
	m.buf = append(m.buf, shardPost{at: at, arg: arg}) //partlint:allow hotpathalloc amortized; mailbox buffers are reused
	m.sent++
}

//partib:hotpath
func (m *shardMailbox) postLogged(at int64, arg *item, log func(string)) {
	m.buf = append(m.buf, shardPost{at: at, arg: arg}) // want "calls append"
	cb := func() int64 { return at }                   // want "defines a closure"
	_ = cb
	log("posted")
}

// advance is the window loop shape: pops existing entries and writes into
// existing memory, allocating nothing.
//
//partib:hotpath
func (m *shardMailbox) advance(end int64, fire func(int64, *item)) {
	i := 0
	for ; i < len(m.buf); i++ {
		p := &m.buf[i]
		if p.at >= end {
			break
		}
		fire(p.at, p.arg)
		p.arg = nil
	}
	m.buf = m.buf[:copy(m.buf, m.buf[i:])]
}

// atomicMin is the decentralized barrier's Tmin reduction shape: a bare
// CAS retry loop over one shared word, allocating nothing.
//
//partib:hotpath
func atomicMin(m *atomic.Int64, at int64) {
	for {
		cur := m.Load()
		if at >= cur {
			return
		}
		if m.CompareAndSwap(cur, at) {
			return
		}
	}
}

// atomicMinDeferred is the shape the reduction must NOT take: wrapping
// the retry in a closure (e.g. for a helper or defer) allocates the
// captures on every publish.
//
//partib:hotpath
func atomicMinDeferred(m *atomic.Int64, at int64) {
	publish := func() bool { // want "defines a closure"
		cur := m.Load()
		return at >= cur || m.CompareAndSwap(cur, at)
	}
	for !publish() {
	}
}

// drainSealed is the worker-side drain shape: the claimer walks its
// destination's sealed snapshots in fixed source order and schedules each
// entry into existing engine memory. Reads only — no compaction, no
// clearing — so the loop is allocation-free.
//
//partib:hotpath
func drainSealed(sealed [][]shardPost, fire func(int64, *item)) {
	for src := 0; src < len(sealed); src++ {
		for i := range sealed[src] {
			p := &sealed[src][i]
			fire(p.at, p.arg)
		}
	}
}

// drainSealedBoxed is the drain shape gone wrong: building a fresh
// per-entry callback record boxes and allocates on every delivered post.
//
//partib:hotpath
func drainSealedBoxed(sealed [][]shardPost, schedule func(any)) {
	for src := 0; src < len(sealed); src++ {
		for i := range sealed[src] {
			p := sealed[src][i]
			schedule(p) // want "boxes a value into interface parameter"
		}
	}
}
