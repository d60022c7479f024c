package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/ucx"
	"repro/internal/xport"
)

// tracedProviderName is the registry name of the counting decorator. A
// traced repeat selects it through the runners' Provider field; untraced
// repeats use "verbs" directly.
const tracedProviderName = "simbench-traced"

func init() { xport.Register(tracedProviderName, newTracedProvider) }

// xportCounts are one rank's transport-boundary counters. Each rank's
// provider instance is driven only by that rank's engine (its shard), so
// the counters need no synchronization; they are summed after the run.
type xportCounts struct {
	postSend, postSendNs, sendBytes, inline int64
	postRecv                                int64
	completions, completionNs, failedComps  int64
	postErrors                              int64
	outstandingMax                          int64
	msgSends, msgSendNs                     int64
}

func (c *xportCounts) add(o xportCounts) {
	c.postSend += o.postSend
	c.postSendNs += o.postSendNs
	c.sendBytes += o.sendBytes
	c.inline += o.inline
	c.postRecv += o.postRecv
	c.completions += o.completions
	c.completionNs += o.completionNs
	c.failedComps += o.failedComps
	c.postErrors += o.postErrors
	c.outstandingMax = max(c.outstandingMax, o.outstandingMax)
	c.msgSends += o.msgSends
	c.msgSendNs += o.msgSendNs
}

// tracedProviders collects the decorator instances created since the last
// takeTraced, so a traced repeat can read every rank's counters after its
// run. Instances are created while worlds are built, before any engine
// runs; the mutex only guards against a provider resolved mid-run.
var tracedProviders struct {
	mu  sync.Mutex
	pvs []*tracedProvider
}

// takeTraced returns and forgets the instances created so far.
func takeTraced() []*tracedProvider {
	tracedProviders.mu.Lock()
	defer tracedProviders.mu.Unlock()
	pvs := tracedProviders.pvs
	tracedProviders.pvs = nil
	return pvs
}

// tracedProvider wraps a rank's verbs provider instance. It adds no
// simulated time: every call passes straight through, and only host time
// and counts are recorded around it.
type tracedProvider struct {
	xport.Provider // the rank's "verbs" instance
	host           xport.Host
	msgrs          []xport.Messenger
	n              xportCounts
}

func newTracedProvider(h xport.Host) (xport.Provider, error) {
	base, err := h.Provider("verbs")
	if err != nil {
		return nil, fmt.Errorf("traced provider: %w", err)
	}
	tp := &tracedProvider{Provider: base, host: h}
	tracedProviders.mu.Lock()
	tracedProviders.pvs = append(tracedProviders.pvs, tp)
	tracedProviders.mu.Unlock()
	return tp, nil
}

// NewEndpoint wraps the base endpoint and its completion callback.
func (tp *tracedProvider) NewEndpoint(cfg xport.EndpointConfig) (xport.Endpoint, error) {
	onComp := cfg.OnCompletion
	if onComp != nil {
		cfg.OnCompletion = func(p *sim.Proc, c xport.Completion) {
			t0 := time.Now()
			onComp(p, c)
			tp.n.completionNs += int64(time.Since(t0))
			tp.n.completions++
			if !c.OK() {
				tp.n.failedComps++
			}
		}
	}
	ep, err := tp.Provider.NewEndpoint(cfg)
	if err != nil {
		return nil, err
	}
	return &tracedEndpoint{Endpoint: ep, n: &tp.n}, nil
}

// NewMessenger builds the ucx messenger over the decorator rather than over
// the base provider (which is what verbs' own NewMessenger does), so the
// messenger's work requests pass through the endpoint counters too.
func (tp *tracedProvider) NewMessenger(cfg xport.MessengerConfig) (xport.Messenger, error) {
	m, err := ucx.New(tp.host, tp, cfg)
	if err != nil {
		return nil, err
	}
	tm := &tracedMessenger{Messenger: m, n: &tp.n}
	tp.msgrs = append(tp.msgrs, tm)
	return tm, nil
}

type tracedEndpoint struct {
	xport.Endpoint
	n *xportCounts
}

func (te *tracedEndpoint) PostSend(wr *xport.SendWR) error {
	for _, s := range wr.Segs {
		te.n.sendBytes += int64(s.Len)
	}
	if wr.Inline {
		te.n.inline++
	}
	t0 := time.Now()
	err := te.Endpoint.PostSend(wr)
	te.n.postSendNs += int64(time.Since(t0))
	te.n.postSend++
	if err != nil {
		te.n.postErrors++
	}
	te.n.outstandingMax = max(te.n.outstandingMax, int64(te.Endpoint.Outstanding()))
	return err
}

func (te *tracedEndpoint) PostRecv(wr *xport.RecvWR) error {
	err := te.Endpoint.PostRecv(wr)
	te.n.postRecv++
	if err != nil {
		te.n.postErrors++
	}
	return err
}

// tracedMessenger times the messenger's send entry points. A send may park
// its proc (copy costs are simulated with sleeps), so the host time of a
// call includes whatever the engine ran while it was parked.
type tracedMessenger struct {
	xport.Messenger
	n *xportCounts
}

func (tm *tracedMessenger) Send(p *sim.Proc, dst int, header uint64, data []byte) error {
	t0 := time.Now()
	err := tm.Messenger.Send(p, dst, header, data)
	tm.n.msgSendNs += int64(time.Since(t0))
	tm.n.msgSends++
	return err
}

func (tm *tracedMessenger) SendMR(p *sim.Proc, dst int, header uint64, mem xport.Mem, off, length int) error {
	t0 := time.Now()
	err := tm.Messenger.SendMR(p, dst, header, mem, off, length)
	tm.n.msgSendNs += int64(time.Since(t0))
	tm.n.msgSends++
	return err
}

// tracedTotals sums the counters of a traced run's provider instances and
// reads the rank- and port-level counters of the hosts they served.
type tracedTotals struct {
	x                          xportCounts
	bcopy, zcopy, rndv         int64
	wc, fabricMsgs, fabricByte int64
}

func collectTraced(pvs []*tracedProvider) (tracedTotals, error) {
	var t tracedTotals
	for _, tp := range pvs {
		t.x.add(tp.n)
		for _, m := range tp.msgrs {
			b, z, r := m.Stats()
			t.bcopy += b
			t.zcopy += z
			t.rndv += r
		}
		r, ok := tp.host.(*mpi.Rank)
		if !ok {
			return t, fmt.Errorf("traced provider host %T is not an *mpi.Rank", tp.host)
		}
		t.wc += r.WCProcessed()
		port := r.Node().HCA.Port()
		t.fabricMsgs += port.MessagesSent()
		t.fabricByte += port.BytesSent()
	}
	return t, nil
}
