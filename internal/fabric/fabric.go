// Package fabric simulates the interconnect the software verbs device
// (internal/ibv) transmits on: an EDR-InfiniBand-like network whose costs
// follow the LogGP decomposition the paper models with.
//
// Each HCA owns a Port. A Flow is a unidirectional, reliable, ordered
// message pipeline between two ports — the fabric-level realization of one
// queue pair's send direction. Messages are charged:
//
//   - WRProcess per work request (doorbell + WQE fetch at the NIC),
//   - MsgGap between consecutive messages of the same flow (LogGP g),
//   - per-byte injection pacing PerQPByteTime on the flow (a single QP
//     cannot saturate the link, which is why the paper's Figure 7 finds
//     more QPs help large transfers),
//   - per-byte serialization LinkByteTime on the shared egress and ingress
//     link cursors (LogGP G), with per-MTU-packet header bytes, and
//   - WireLatency (LogGP L) on the wire, plus AckLatency for the sender's
//     completion.
//
// Link arbitration happens at burst granularity (BurstBytes, default
// 64 KiB): a flow reserves the link for at most one burst at a time, so
// concurrent flows interleave within a few microseconds like packets on a
// real switch, without simulating every 4 KiB packet as its own event.
//
// The fabric also provides a Control plane: small, reliable, ordered
// rank-to-rank messages used by the MPI runtime for queue-pair and rkey
// exchange, mirroring the paper's asynchronous connection setup inside
// MPI_Psend_init/MPI_Precv_init.
package fabric

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/loggp"
	"repro/internal/sim"
)

// Config holds the fabric cost model. Use DefaultConfig for an
// EDR-InfiniBand-like parameterization.
type Config struct {
	// MTU is the maximum transmission unit in bytes.
	MTU int
	// BurstBytes is the link-arbitration granularity.
	BurstBytes int
	// PacketHeader is the per-MTU-packet header overhead in bytes.
	PacketHeader int
	// WireLatency is the one-way propagation latency (LogGP L).
	WireLatency time.Duration
	// AckLatency is the extra time until the sender's completion after
	// the last byte arrives (hardware ack on a reliable connection).
	AckLatency time.Duration
	// LinkByteTime is the shared-link per-byte cost in ns/B (LogGP G).
	LinkByteTime float64
	// PerQPByteTime is the per-flow injection pacing in ns/B; it must be
	// >= LinkByteTime. Values above LinkByteTime mean a single QP cannot
	// saturate the link.
	PerQPByteTime float64
	// WRProcess is the per-work-request NIC processing cost (WQE fetch
	// over PCIe after the doorbell).
	WRProcess time.Duration
	// InlineWRProcess replaces WRProcess for inline work requests: the
	// payload travels inside the doorbell write (inlining/BlueFlame), so
	// the NIC skips the WQE/payload DMA fetch. The paper leaves these
	// small-message features to future work; they are modelled here so
	// that study can be run (see the ablation experiments).
	InlineWRProcess time.Duration
	// MsgGap is the minimum spacing between messages of one flow (LogGP g).
	MsgGap time.Duration
	// CtrlLatency is the control-plane one-way latency.
	CtrlLatency time.Duration
	// Topo selects the interconnect topology. nil means the single
	// shared link the fabric always modelled. Flat topologies
	// (single-link, two-level racks) only reshape pair latencies; graph
	// topologies (fat-tree, dragonfly) add per-link serialization cursors
	// so routed flows genuinely contend. See topology.go.
	Topo *Topology
}

// DefaultConfig returns an EDR-InfiniBand-like cost model: ~11.7 GB/s link,
// ~7.1 GB/s per QP, 4 KiB MTU, 1 µs wire latency. Per-WR processing and
// inter-message gaps are tens of nanoseconds, matching the ~200 M msg/s
// message rate of the ConnectX-5 generation — the hardware is cheap per
// work request; it is the *software* per-message cost (modelled in the MPI
// and UCX layers) that aggregation saves.
func DefaultConfig() Config {
	return Config{
		MTU:             4096,
		BurstBytes:      65536,
		PacketHeader:    64,
		WireLatency:     1000 * time.Nanosecond,
		AckLatency:      1000 * time.Nanosecond,
		LinkByteTime:    0.085,
		PerQPByteTime:   0.140,
		WRProcess:       25 * time.Nanosecond,
		InlineWRProcess: 5 * time.Nanosecond,
		MsgGap:          10 * time.Nanosecond,
		CtrlLatency:     1500 * time.Nanosecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.MTU <= 0:
		return fmt.Errorf("fabric: MTU %d must be positive", c.MTU)
	case c.BurstBytes < c.MTU:
		return fmt.Errorf("fabric: BurstBytes %d must be >= MTU %d", c.BurstBytes, c.MTU)
	case c.PacketHeader < 0:
		return fmt.Errorf("fabric: negative PacketHeader")
	case c.LinkByteTime <= 0:
		return fmt.Errorf("fabric: LinkByteTime must be positive")
	case c.PerQPByteTime < c.LinkByteTime:
		return fmt.Errorf("fabric: PerQPByteTime %v < LinkByteTime %v", c.PerQPByteTime, c.LinkByteTime)
	case c.WireLatency < 0 || c.AckLatency < 0 || c.WRProcess < 0 ||
		c.InlineWRProcess < 0 || c.MsgGap < 0 || c.CtrlLatency < 0:
		return fmt.Errorf("fabric: negative latency parameter")
	}
	return c.Topo.validate()
}

// LinkBandwidth returns the shared-link bandwidth in bytes per second.
func (c Config) LinkBandwidth() float64 { return 1e9 / c.LinkByteTime }

// Lookahead returns the smallest cross-port interaction latency of the
// cost model: the minimum of the wire, ack, and control latencies. Every
// port-to-port effect in this package (burst arrival, completion,
// control delivery) is separated from its cause by at least this much
// virtual time, so it is a sound conservative-PDES lookahead bound for
// sharding the simulation along port boundaries (sim.ShardSet). With a
// multi-hop topology it additionally includes the smallest link latency,
// since routed bursts also hop between link cursors; with a flat topology
// it is unchanged from the single-link model. PairLookahead gives the
// wider per-pair bound.
func (c Config) Lookahead() time.Duration {
	l := c.WireLatency
	if c.AckLatency < l {
		l = c.AckLatency
	}
	if c.CtrlLatency < l {
		l = c.CtrlLatency
	}
	if c.Topo != nil && !c.Topo.Flat() {
		if ml := c.Topo.MinLinkLatency(); ml < l {
			l = ml
		}
	}
	return l
}

// Topology resolves the configured topology: Topo when set, the single
// shared link otherwise. The returned copy is stamped with the config's
// wire latency so PairLatency is complete.
func (c Config) Topology() *Topology {
	t := c.Topo
	if t == nil {
		t = SingleLink()
	}
	r := *t
	r.baseWire = c.WireLatency
	return &r
}

// PairLookahead returns the smallest interaction latency between two
// specific ports: the global floor plus the pair's topology extra (the
// cross-rack extra in a two-level topology, shortest-path link latencies
// in a graph topology). Every effect the fabric schedules from port a
// onto port b's engine is at least this far in the future, so it is a
// sound per-pair conservative-PDES lookahead
// (sim.ShardSet.SetLookaheadMatrix).
func (c Config) PairLookahead(a, b int) time.Duration {
	return c.Lookahead() + c.Topology().PairExtra(a, b)
}

// TrueParams expresses the fabric's own costs as a LogGP parameter set
// (the "fabric truth" against which Netgauge-style measurement through MPI
// is compared).
func (c Config) TrueParams() loggp.Params {
	return loggp.Params{
		L:   c.WireLatency,
		Os:  c.WRProcess,
		Or:  c.AckLatency,
		Gap: c.MsgGap,
		G:   c.LinkByteTime,
	}
}

// Fabric is a simulated interconnect instance. Its ports may live on
// different engines of one sim.ShardSet (see NewPortOn): all port-to-port
// interactions cross engines only through sim.Engine.Post with timestamps
// at least Config.Lookahead in the future, which is exactly the
// conservative-lookahead contract the shard runtime requires.
type Fabric struct {
	eng   *sim.Engine
	cfg   Config
	topo  *Topology
	ports []*Port

	// links are the graph topology's serialization cursors (empty for
	// flat topologies). ownerLinks maps a host ID to the links whose
	// cursor its engine owns, so NewPortOn can bind engines; unbound
	// links (hosts beyond the port count) stay on the fabric's engine.
	links      []linkState
	ownerLinks map[int][]int
}

// New creates a fabric on the engine. It panics on invalid configuration
// (a construction-time programming error).
func New(e *sim.Engine, cfg Config) *Fabric {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := &Fabric{eng: e, cfg: cfg, topo: cfg.Topology()}
	if t := f.topo; !t.Flat() {
		f.links = make([]linkState, t.Links())
		f.ownerLinks = make(map[int][]int)
		for i := range f.links {
			link := t.LinkAt(i)
			bt := link.ByteTime
			if bt == 0 {
				bt = cfg.LinkByteTime
			}
			f.links[i] = linkState{link: link, eng: e, lat: link.Latency, byteTime: bt}
			f.ownerLinks[link.OwnerHost] = append(f.ownerLinks[link.OwnerHost], i)
		}
	}
	return f
}

// Engine returns the simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Config returns the cost model.
func (f *Fabric) Config() Config { return f.cfg }

// Topology returns the resolved topology the fabric was built with.
func (f *Fabric) Topology() *Topology { return f.topo }

// Port is one network endpoint (one HCA's link). Each port is owned by
// one engine (its shard): egress state is touched only by flows sending
// from the port (which run on its engine), ingress and control state only
// by reservation events delivered to its engine.
type Port struct {
	fab  *Fabric
	eng  *sim.Engine
	id   int
	name string

	egressFreeAt  sim.Time
	ingressFreeAt sim.Time

	// resvPending batches burst reservations that fired at the same
	// virtual instant so the ingress cursor can charge them in canonical
	// (arrival bound, source ID) order one nanosecond later — independent
	// of event seq order, which differs between serial and sharded runs
	// (see fireIngressResv). resvFlushAt is the instant of the scheduled
	// flush (at most one per instant). Both are owned by this port's
	// engine.
	resvPending []ingressResv
	resvFlushAt sim.Time

	ctrlHandler func(from *Port, payload any)
	// ctrlLastAt enforces FIFO control delivery per destination port. It
	// is advanced by arrival-side reservation events, so it is owned by
	// the destination engine.
	ctrlLastAt sim.Time
	// ctrlFree recycles this port's outbound control-delivery records.
	// Records are allocated by the sending port and recycled to the
	// receiving port (each side touching only its own list), so
	// steady-state control traffic stops allocating once both directions
	// are warm.
	ctrlFree []*ctrlDelivery

	// Statistics. Sent counters are written on the sending engine,
	// received counters on this port's engine.
	bytesSent     int64
	bytesReceived int64
	msgsSent      int64
}

// NewPort adds an endpoint to the fabric, owned by the fabric's engine.
func (f *Fabric) NewPort(name string) *Port {
	return f.NewPortOn(f.eng, name)
}

// NewPortOn adds an endpoint owned by engine e — the shard on which all
// of the port's arrival-side events run. e must be the fabric's engine or
// a shard of the same ShardSet. With a graph topology the port's ID must
// fit the topology's host count, and the link cursors the host owns
// (its down link, plus any switch links assigned to it) are bound to e.
// Ports are created before the simulation runs (or on a single engine),
// so the binding is race-free.
func (f *Fabric) NewPortOn(e *sim.Engine, name string) *Port {
	p := &Port{fab: f, eng: e, id: len(f.ports), name: name}
	if h := f.topo.Hosts(); h > 0 && p.id >= h {
		panic(fmt.Sprintf("fabric: port %d exceeds topology %q host capacity %d", p.id, f.topo.Name(), h))
	}
	for _, li := range f.ownerLinks[p.id] {
		f.links[li].eng = e
	}
	f.ports = append(f.ports, p)
	return p
}

// Name returns the port's name.
func (p *Port) Name() string { return p.name }

// ID returns the port's fabric-wide index (creation order). Ports are
// created in node order, so the ID doubles as the topology coordinate
// every topology (two-level racks, fat-tree edges, dragonfly groups)
// partitions.
func (p *Port) ID() int { return p.id }

// Engine returns the engine (shard) that owns the port.
func (p *Port) Engine() *sim.Engine { return p.eng }

// Fabric returns the fabric this port is attached to.
func (p *Port) Fabric() *Fabric { return p.fab }

// BytesSent returns the cumulative payload bytes injected by this port.
func (p *Port) BytesSent() int64 { return p.bytesSent }

// BytesReceived returns the cumulative payload bytes delivered to this port.
func (p *Port) BytesReceived() int64 { return p.bytesReceived }

// MessagesSent returns the number of messages injected by this port.
func (p *Port) MessagesSent() int64 { return p.msgsSent }

// SetControlHandler installs the callback for control-plane messages
// addressed to this port.
func (p *Port) SetControlHandler(h func(from *Port, payload any)) {
	p.ctrlHandler = h
}

// ctrlDelivery is one in-flight control-plane message, pre-bound to its
// arrival event so SendControl schedules without a closure.
type ctrlDelivery struct {
	src, dst *Port
	payload  any
}

// fireCtrlArrive runs on the destination engine when a control message
// arrives (one control latency — plus the pair's inter-rack extra — after
// the send). It applies the destination's FIFO serialization: an
// uncontended arrival is delivered inline; an arrival at or before the
// previous delivery instant is pushed one nanosecond behind it. Arrivals
// from one sender are its sends shifted by a per-pair constant, so they
// fire in send order and per-sender FIFO holds; across senders the
// serialization follows arrival timestamps, a deterministic total order —
// and every delivery timestamp is identical to charging the cursor at
// arrival time the way a single serial engine would.
func fireCtrlArrive(at sim.Time, arg any) {
	cd := arg.(*ctrlDelivery)
	dst := cd.dst
	if at <= dst.ctrlLastAt {
		dst.ctrlLastAt++
		dst.eng.AtCall(dst.ctrlLastAt, fireCtrlDeliver, cd)
		return
	}
	dst.ctrlLastAt = at
	fireCtrlDeliver(at, arg)
}

// fireCtrlDeliver hands an arrived control message to the destination
// handler and recycles the delivery record to the destination port.
func fireCtrlDeliver(_ sim.Time, arg any) {
	cd := arg.(*ctrlDelivery)
	src, dst, payload := cd.src, cd.dst, cd.payload
	// Recycle before invoking the handler: handlers may send further
	// control messages and can then reuse this record.
	cd.src, cd.dst, cd.payload = nil, nil, nil
	dst.ctrlFree = append(dst.ctrlFree, cd)
	if dst.ctrlHandler == nil {
		panic(fmt.Sprintf("fabric: control message to %q with no handler", dst.name))
	}
	dst.ctrlHandler(src, payload)
}

// SendControl delivers payload to dst's control handler after the
// control-plane latency. Delivery order to a given destination is FIFO
// across all senders (a deterministic total order, like a serialized
// management network). Must be called on the sending port's engine.
func (p *Port) SendControl(dst *Port, payload any) {
	e := p.eng
	var cd *ctrlDelivery
	if n := len(p.ctrlFree); n > 0 {
		cd = p.ctrlFree[n-1]
		p.ctrlFree = p.ctrlFree[:n-1]
	} else {
		cd = new(ctrlDelivery)
	}
	cd.src, cd.dst, cd.payload = p, dst, payload
	lat := p.fab.cfg.CtrlLatency + p.fab.topo.PairExtra(p.id, dst.id)
	e.Post(dst.eng, e.Now().Add(lat), fireCtrlArrive, cd)
}

// Message is one fabric-level transfer (the realization of one work
// request). OnDeliver runs at the virtual instant the last byte is placed
// at the destination; OnAck runs when the sender's hardware completion
// would be generated.
type Message struct {
	Bytes int
	// Inline marks a work request whose payload was written through the
	// doorbell (inlining/BlueFlame): the NIC charges InlineWRProcess
	// instead of WRProcess.
	Inline    bool
	OnDeliver func(at sim.Time)
	OnAck     func(at sim.Time)
}

// Flow is a unidirectional reliable ordered message pipeline between two
// ports (one QP's send direction). Messages injected on one flow are
// processed strictly in order; distinct flows contend for the shared link
// at burst granularity.
//
// A flow's injection pipeline (Send, step, finish, ack, release) runs on
// the source port's engine; arrival-side effects (ingress serialization,
// delivery) run on the destination port's engine, reached through
// per-burst reservation events posted one wire latency ahead (see step).
type Flow struct {
	fab *Fabric
	eng *sim.Engine // == src.eng: the injection-side shard
	src *Port
	dst *Port

	// queue[head:] are the messages not yet fully injected. Dequeuing
	// advances head; when the queue drains, both reset so the backing
	// array is reused instead of reallocated.
	queue []*flowMsg
	head  int
	// free recycles flowMsg structs: a message returns to the list once
	// its delivery (and ack, if requested) events have fired, so
	// steady-state Send allocates nothing after warm-up.
	free   []*flowMsg
	active bool

	// paceFreeAt is when the flow may inject its next burst (per-QP rate).
	paceFreeAt sim.Time
	// msgFreeAt is when the flow may begin processing its next WR.
	msgFreeAt sim.Time

	// Pair latencies, precomputed at NewFlow so the per-burst hot path
	// does no topology arithmetic: the forward wire latency src→dst, the
	// return ack latency dst→src, and the return release gap (the pair
	// lookahead), each including the topology's pair extra (inter-rack,
	// or route latency) when the endpoints are not adjacent. On a routed
	// flow wireLat covers only host injection (the per-link latencies
	// are charged hop by hop), while ackLat/relLat still span the whole
	// return path.
	wireLat time.Duration
	ackLat  time.Duration
	relLat  time.Duration

	// Routed-topology state (nil/zero on flat topologies). route is the
	// flow's hash-selected link path, fixed at creation; flowID is the
	// caller-chosen identity that seeded the path hash and breaks
	// canonical-order ties between flows sharing a (src, dst) pair.
	// hopFree recycles hop reservations; it is touched only on the
	// source engine (take in step, return via fireHopRecycle).
	route   []*linkState
	flowID  uint64
	hopFree []*hopResv
}

// flowMsg is the in-flight state of one message. It doubles as the
// pre-bound argument of the flow's step/reservation/deliver/ack events,
// so the whole lifetime of a message schedules no closures.
//
// The resv* fields are a single-slot channel from the injection side to
// the arrival side, rewritten per burst. The reuse is race-free under
// sharding because consecutive writes are at least one full-burst pace
// apart, which Cluster validates to exceed the largest pair wire latency
// plus the largest pair lookahead: the reservation carrying the previous
// value has then already fired in an earlier synchronization hop (and
// the hop barrier orders the memory accesses). Likewise the struct is
// recycled only on the source engine, at least one pair lookahead after
// its final reservation fired.
type flowMsg struct {
	fl          *Flow
	msg         Message
	remaining   int
	lastArrival sim.Time
	ackAt       sim.Time
	// resvArrive is the arrival lower bound (egress end + wire latency)
	// of the burst whose reservation is in flight; resvFinal marks the
	// message's last burst.
	resvArrive sim.Time
	resvFinal  bool
}

// Typed-event trampolines for the flow pipeline (see sim.AtCall).
//partib:hotpath
func fireFlowStep(_ sim.Time, arg any)    { arg.(*Flow).step() }
//partib:hotpath
func fireFlowDeliver(_ sim.Time, arg any) { arg.(*flowMsg).deliver() }
//partib:hotpath
func fireFlowAck(_ sim.Time, arg any)     { arg.(*flowMsg).ack() }
//partib:hotpath
func fireFlowRelease(_ sim.Time, arg any) { fm := arg.(*flowMsg); fm.fl.release(fm) }

// NewFlow creates a flow from src to dst with flow identity 0. Loopback
// (src == dst) is allowed. On graph topologies, callers multiplexing
// several flows over one (src, dst) pair should use NewFlowID with
// distinct identities so the flows hash onto distinct equal-cost paths
// and order deterministically.
func (f *Fabric) NewFlow(src, dst *Port) *Flow {
	return f.NewFlowID(src, dst, 0)
}

// NewFlowID creates a flow from src to dst with an explicit flow
// identity. The identity seeds the deterministic ECMP path hash on graph
// topologies — distinct identities between one host pair spread across
// the equal-cost paths the way distinct QPs multipath on a real fabric —
// and breaks canonical arbitration ties between flows sharing a (src,
// dst) pair. It must be unique per (src, dst, direction) for the
// arbitration order to be total; the verbs layer derives it from the
// queue-pair number. Must be called before the simulation runs or on the
// source port's engine.
func (f *Fabric) NewFlowID(src, dst *Port, flowID uint64) *Flow {
	if src == nil || dst == nil {
		panic("fabric: NewFlow with nil port")
	}
	if src.fab != f || dst.fab != f {
		panic("fabric: NewFlow ports belong to a different fabric")
	}
	extra := f.topo.PairExtra(src.id, dst.id)
	fl := &Flow{
		fab: f, eng: src.eng, src: src, dst: dst, flowID: flowID,
		wireLat: f.cfg.WireLatency + extra,
		ackLat:  f.cfg.AckLatency + extra,
		relLat:  f.cfg.Lookahead() + extra,
	}
	if ids := f.topo.Route(src.id, dst.id, flowID); ids != nil {
		fl.route = make([]*linkState, len(ids))
		for i, id := range ids {
			fl.route[i] = &f.links[id]
		}
		// Hop latencies are charged per link; injection pays only the
		// host's wire latency.
		fl.wireLat = f.cfg.WireLatency
	}
	return fl
}

// Src returns the sending port.
func (fl *Flow) Src() *Port { return fl.src }

// Dst returns the receiving port.
func (fl *Flow) Dst() *Port { return fl.dst }

// Queued returns the number of messages not yet fully injected.
func (fl *Flow) Queued() int { return len(fl.queue) - fl.head }

// Send enqueues a message on the flow. Zero-byte messages still traverse
// the wire (headers move). Negative sizes panic.
//partib:hotpath
func (fl *Flow) Send(m Message) {
	if m.Bytes < 0 {
		panic("fabric: negative message size")
	}
	fl.src.msgsSent++
	fl.src.bytesSent += int64(m.Bytes)
	var fm *flowMsg
	if n := len(fl.free); n > 0 {
		fm = fl.free[n-1]
		fl.free[n-1] = nil
		fl.free = fl.free[:n-1]
	} else {
		fm = &flowMsg{fl: fl} //partlint:allow hotpathalloc free-list miss; steady state recycles
	}
	fm.msg, fm.remaining, fm.lastArrival = m, m.Bytes, 0
	fl.queue = append(fl.queue, fm) //partlint:allow hotpathalloc amortized; capacity is reused via queue[:0]
	if !fl.active {
		fl.active = true
		fl.startHead()
	}
}

// release returns a flowMsg whose events have all fired to the free list,
// dropping callback references so captured state can be collected.
//partib:hotpath
func (fl *Flow) release(fm *flowMsg) {
	fm.msg = Message{}
	fl.free = append(fl.free, fm) //partlint:allow hotpathalloc amortized free-list growth
}

// startHead begins WR processing for the message at the head of the queue.
//partib:hotpath
func (fl *Flow) startHead() {
	e := fl.eng
	start := e.Now()
	if fl.msgFreeAt > start {
		start = fl.msgFreeAt
	}
	proc := fl.fab.cfg.WRProcess
	if fl.queue[fl.head].msg.Inline {
		proc = fl.fab.cfg.InlineWRProcess
	}
	injectAt := start.Add(proc)
	if fl.paceFreeAt > injectAt {
		injectAt = fl.paceFreeAt
	}
	e.AtCall(injectAt, fireFlowStep, fl)
}

// step injects one burst of the head message, then schedules the next
// action. It runs as an event on the source engine. The destination's
// ingress cursor is not touched here: a reservation event posted one wire
// latency ahead joins the destination port's pending batch, and a flush
// charges the whole batch in canonical (arrival bound, source ID) order —
// see fireIngressResv. That order is a pure function of the traffic, so
// arrival timestamps are bit-for-bit identical across serial and sharded
// runs and across worker counts.
//partib:hotpath
func (fl *Flow) step() {
	e := fl.eng
	cfg := fl.fab.cfg
	fm := fl.queue[fl.head]

	// Zero-byte messages occupy the link for their header only.
	burst := fm.remaining
	if burst > cfg.BurstBytes {
		burst = cfg.BurstBytes
	}
	packets := loggp.Packets(burst, cfg.MTU)
	wireBytes := burst + packets*cfg.PacketHeader

	// Grab the shared egress link (FIFO cursor).
	grant := e.Now()
	if fl.src.egressFreeAt > grant {
		grant = fl.src.egressFreeAt
	}
	tx := time.Duration(float64(wireBytes) * cfg.LinkByteTime)
	egressEnd := grant.Add(tx)
	fl.src.egressFreeAt = egressEnd

	// Per-flow pacing for the next burst.
	pace := time.Duration(float64(burst) * cfg.PerQPByteTime)
	fl.paceFreeAt = grant.Add(pace)
	if fl.paceFreeAt < egressEnd {
		fl.paceFreeAt = egressEnd
	}

	fm.remaining -= burst
	if fl.route != nil {
		// Routed topology: the burst hops link cursor to link cursor
		// instead of reserving the destination's ingress. The hop record
		// snapshots everything the downstream flushes need, so the
		// flowMsg's single reservation slot is not involved and the
		// per-burst pace constraint the flat model needs does not apply.
		hr := fl.takeHop()
		hr.arrive = egressEnd.Add(fl.wireLat)
		hr.wireBytes = int32(wireBytes)
		hr.hop = 0
		hr.final = fm.remaining == 0
		if hr.final {
			hr.fm = fm
		}
		e.Post(fl.route[0].eng, e.Now().Add(fl.wireLat), fireLinkResv, hr)
	} else {
		fm.resvArrive = egressEnd.Add(fl.wireLat)
		fm.resvFinal = fm.remaining == 0
		e.Post(fl.dst.eng, e.Now().Add(fl.wireLat), fireIngressResv, fm)
	}

	if fm.remaining > 0 {
		e.AtCall(fl.paceFreeAt, fireFlowStep, fl)
		return
	}

	// Message fully injected: close out the sender side and move on.
	fl.finish(egressEnd)
}

// ingressResv is one burst reservation awaiting its destination's ingress
// charge. The arrival bound, finality, and tie-break key are snapshotted at
// reservation-fire time (the flowMsg's single reservation slot may be
// rewritten by the source before the flush runs), so the flush touches the
// flowMsg only for final bursts, whose slot is stable until recycle.
type ingressResv struct {
	at     sim.Time // reservation fire instant (batch key)
	arrive sim.Time // arrival lower bound (egress end + wire latency)
	srcID  int      // tie-break after arrive: source port ID
	final  bool     // message's last burst: schedule delivery + completion
	fm     *flowMsg
}

// resvBefore is the canonical ingress-charge order within one instant's
// batch: earlier arrival bound first, source port ID breaking ties. Two
// reservations from one source port can never carry equal arrival bounds —
// the shared egress cursor strictly separates their egress ends — so the
// order is total.
//partib:hotpath
func resvBefore(a, b *ingressResv) bool {
	if a.arrive != b.arrive {
		return a.arrive < b.arrive
	}
	return a.srcID < b.srcID
}

// fireIngressResv runs on the destination engine when a burst reaches the
// destination. It does not charge the ingress cursor directly: reservations
// from different source ports can fire at the same virtual instant, and
// their event order at a tie follows engine seq assignment, which depends
// on how nodes are grouped onto shard engines. Charging in that order would
// make delivery timestamps differ between serial and sharded runs. Instead
// the reservation joins the port's pending batch, and a flush one
// nanosecond later charges the whole instant's batch in canonical
// (arrival bound, source ID) order — the same order, and therefore the same
// timestamps, on every shard layout.
//partib:hotpath
func fireIngressResv(at sim.Time, arg any) {
	fm := arg.(*flowMsg)
	dst := fm.fl.dst
	dst.resvPending = append(dst.resvPending, ingressResv{ //partlint:allow hotpathalloc amortized; batch buffer is reused
		at:     at,
		arrive: fm.resvArrive,
		srcID:  fm.fl.src.id,
		final:  fm.resvFinal,
		fm:     fm,
	})
	if flushAt := at + 1; dst.resvFlushAt < flushAt {
		dst.resvFlushAt = flushAt
		dst.eng.AtCall(flushAt, fireIngressFlush, dst)
	}
}

// fireIngressFlush charges the previous instant's reservation batch on the
// ingress cursor in canonical order, and for each final burst schedules the
// delivery locally and routes the completion (or, without one, the flowMsg
// recycle) back to the source — both at timestamps at least one lookahead
// ahead, keeping every cross-shard hop conservative. Only entries that
// fired strictly before this flush are processed: an entry firing at the
// flush instant itself may sit in the buffer already or not (seq order at
// the tie is arbitrary), so it is left for its own flush either way.
//partib:hotpath
func fireIngressFlush(now sim.Time, arg any) {
	p := arg.(*Port)
	pending := p.resvPending
	n := 0
	for n < len(pending) && pending[n].at < now {
		n++
	}
	batch := pending[:n]
	// Insertion sort into canonical order; batches are almost always a
	// single entry, a handful under heavy fan-in.
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && resvBefore(&batch[j], &batch[j-1]); j-- {
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
	for i := range batch {
		r := &batch[i]
		arrive := r.arrive
		if p.ingressFreeAt > arrive {
			arrive = p.ingressFreeAt
		}
		p.ingressFreeAt = arrive
		if !r.final {
			continue
		}
		fm := r.fm
		fl := fm.fl
		fm.lastArrival = arrive
		e := p.eng
		e.AtCall(arrive, fireFlowDeliver, fm)
		if fm.msg.OnAck != nil {
			fm.ackAt = arrive.Add(fl.ackLat)
			e.Post(fl.eng, fm.ackAt, fireFlowAck, fm)
		} else {
			// No completion requested: the struct still belongs to the
			// source engine's free list, so send it home one pair lookahead
			// after the delivery (the recycle instant has no observable
			// effect).
			e.Post(fl.eng, arrive.Add(fl.relLat), fireFlowRelease, fm)
		}
	}
	// Drop the processed prefix; clear vacated slots so delivered flowMsgs
	// are not pinned until overwritten.
	kept := copy(pending, pending[n:])
	for i := kept; i < len(pending); i++ {
		pending[i] = ingressResv{}
	}
	p.resvPending = pending[:kept]
}

// finish closes out the sender side of a fully injected message and
// advances to the next queued one. Delivery and completion are scheduled
// by the final burst's reservation on the arrival side; the flowMsg
// returns to the free list once the last source-side event referencing it
// (ack or release) has fired.
//partib:hotpath
func (fl *Flow) finish(egressEnd sim.Time) {
	fl.msgFreeAt = egressEnd.Add(fl.fab.cfg.MsgGap)
	fl.queue[fl.head] = nil
	fl.head++
	if fl.head == len(fl.queue) {
		fl.queue = fl.queue[:0]
		fl.head = 0
		fl.active = false
		return
	}
	fl.startHead()
}

// deliver runs on the destination engine at the instant the last byte is
// placed at the destination.
//partib:hotpath
func (fm *flowMsg) deliver() {
	fm.fl.dst.bytesReceived += int64(fm.msg.Bytes)
	if fn := fm.msg.OnDeliver; fn != nil {
		fn(fm.lastArrival)
	}
}

// ack runs on the source engine when the sender's hardware completion
// would be generated.
//partib:hotpath
func (fm *flowMsg) ack() {
	fn, at := fm.msg.OnAck, fm.ackAt
	fm.fl.release(fm)
	fn(at)
}

// linkState is the serialization cursor of one graph-topology link. Each
// burst crossing the link is charged wireBytes*byteTime on the cursor in
// canonical order, then propagates for the link latency toward the next
// hop — the per-link LogGP {latency, byteTime} pair. All fields are owned
// by eng (the engine of the link's OwnerHost).
type linkState struct {
	link     Link
	eng      *sim.Engine
	lat      time.Duration
	byteTime float64 // resolved: Link.ByteTime or Config.LinkByteTime

	freeAt sim.Time
	// pending batches hop reservations that fired at the same virtual
	// instant so the cursor can charge them in canonical (arrival bound,
	// source, destination, flow) order one nanosecond later — the same
	// discipline as the port ingress batch (fireIngressResv), for the
	// same reason: event order at a timestamp tie depends on the shard
	// layout, the canonical order does not. flushAt is the instant of
	// the scheduled flush (at most one per instant).
	pending []*hopResv
	flushAt sim.Time

	// Statistics (owned by eng; read after the run).
	busy      time.Duration
	bytes     int64
	charges   int64
	maxQueue  time.Duration
	queueHist [queueHistBuckets]int64
}

// queueHistBuckets sizes the log2 queueing-delay histogram: bucket 0
// counts zero-delay charges, bucket b >= 1 counts delays in
// [2^(b-1), 2^b) nanoseconds; 40 buckets span past 18 virtual minutes.
const queueHistBuckets = 40

//partib:hotpath
func queueHistBucket(d time.Duration) int {
	b := bits.Len64(uint64(d))
	if b >= queueHistBuckets {
		b = queueHistBuckets - 1
	}
	return b
}

// LinkStats is the observable state of one link cursor after a run: how
// many bytes it carried, how long it was busy serializing, and the
// queueing-delay distribution its contention produced.
type LinkStats struct {
	Link     Link
	Bytes    int64
	Charges  int64
	Busy     time.Duration
	MaxQueue time.Duration
	// QueueHist[0] counts charges that waited zero time for the cursor;
	// QueueHist[b] (b >= 1) counts queueing delays in [2^(b-1), 2^b) ns.
	QueueHist [queueHistBuckets]int64
}

// QueuePercentile returns an upper bound on the p-quantile (0 < p <= 1)
// of the link's queueing delay, read from the log2 histogram: exact for
// zero delays, within 2x above.
func (s *LinkStats) QueuePercentile(p float64) time.Duration {
	if s.Charges == 0 {
		return 0
	}
	rank := int64(p * float64(s.Charges))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, c := range s.QueueHist {
		cum += c
		if cum >= rank {
			if b == 0 {
				return 0
			}
			up := time.Duration(1) << uint(b)
			if up > s.MaxQueue {
				up = s.MaxQueue
			}
			return up
		}
	}
	return s.MaxQueue
}

// LinkStats returns a snapshot of every link cursor's statistics (empty
// for flat topologies). Call it after the simulation has stopped.
func (f *Fabric) LinkStats() []LinkStats {
	out := make([]LinkStats, len(f.links))
	for i := range f.links {
		l := &f.links[i]
		out[i] = LinkStats{
			Link: l.link, Bytes: l.bytes, Charges: l.charges,
			Busy: l.busy, MaxQueue: l.maxQueue, QueueHist: l.queueHist,
		}
	}
	return out
}

// hopResv is one burst traversing a routed flow's link path. It
// snapshots everything the downstream link cursors need (the flowMsg's
// single reservation slot is never involved), hops cursor to cursor, and
// is recycled to the source engine's free list after the last hop. fm is
// set only on a message's final burst.
type hopResv struct {
	at        sim.Time // reservation fire instant at the current link (batch key)
	arrive    sim.Time // arrival lower bound at the current link's cursor
	wireBytes int32
	hop       int32
	final     bool
	fl        *Flow
	fm        *flowMsg
}

// takeHop pops a hop reservation from the flow's free list. Runs on the
// source engine (from step).
//partib:hotpath
func (fl *Flow) takeHop() *hopResv {
	if n := len(fl.hopFree); n > 0 {
		hr := fl.hopFree[n-1]
		fl.hopFree[n-1] = nil
		fl.hopFree = fl.hopFree[:n-1]
		return hr
	}
	return &hopResv{fl: fl} //partlint:allow hotpathalloc free-list miss; steady state recycles
}

// hopBefore is the canonical link-charge order within one instant's
// batch: earlier arrival bound first, then source port, destination
// port, and flow identity. Distinct flows never compare equal (the
// identity is unique per pair and direction), and equal keys — burst
// pairs of one flow — keep their FIFO order because the insertion sort
// is stable and per-flow hops arrive in injection order.
//partib:hotpath
func hopBefore(a, b *hopResv) bool {
	if a.arrive != b.arrive {
		return a.arrive < b.arrive
	}
	af, bf := a.fl, b.fl
	if af.src.id != bf.src.id {
		return af.src.id < bf.src.id
	}
	if af.dst.id != bf.dst.id {
		return af.dst.id < bf.dst.id
	}
	return af.flowID < bf.flowID
}

// fireLinkResv runs on a link's engine when a burst reaches the link. As
// with port ingress, the cursor is not charged here: reservations from
// different flows can fire at the same virtual instant in
// shard-layout-dependent event order, so the reservation joins the
// link's pending batch and a flush one nanosecond later charges the
// whole instant's batch in canonical order.
//partib:hotpath
func fireLinkResv(at sim.Time, arg any) {
	hr := arg.(*hopResv)
	l := hr.fl.route[hr.hop]
	hr.at = at
	l.pending = append(l.pending, hr) //partlint:allow hotpathalloc amortized; batch buffer is reused
	if flushAt := at + 1; l.flushAt < flushAt {
		l.flushAt = flushAt
		l.eng.AtCall(flushAt, fireLinkFlush, l)
	}
}

// fireLinkFlush charges the previous instant's batch on the link cursor
// in canonical order. Only entries that fired strictly before this flush
// are processed (each entry's own flush runs one nanosecond after it
// fired, and engine events fire in time order, so every processed entry
// fired exactly one nanosecond ago).
//partib:hotpath
func fireLinkFlush(now sim.Time, arg any) {
	l := arg.(*linkState)
	pending := l.pending
	n := 0
	for n < len(pending) && pending[n].at < now {
		n++
	}
	batch := pending[:n]
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && hopBefore(batch[j], batch[j-1]); j-- {
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
	for _, hr := range batch {
		l.charge(now, hr)
	}
	kept := copy(pending, pending[n:])
	for i := kept; i < len(pending); i++ {
		pending[i] = nil
	}
	l.pending = pending[:kept]
}

// charge serializes one burst onto the link and forwards it: to the next
// link's batch one link latency ahead, or — after the final (down) link —
// onto the destination host, scheduling delivery and routing the
// completion or recycle back to the source exactly as the flat pipeline
// does. Every cross-engine post is at least one link latency (next hop)
// or one pair lookahead (return path) in the future, so the hops stay
// conservative under the cluster's topology lookahead matrix.
//partib:hotpath
func (l *linkState) charge(now sim.Time, hr *hopResv) {
	start := hr.arrive
	if l.freeAt > start {
		start = l.freeAt
	}
	tx := time.Duration(float64(hr.wireBytes) * l.byteTime)
	end := start.Add(tx)
	l.freeAt = end

	l.busy += tx
	l.bytes += int64(hr.wireBytes)
	l.charges++
	qd := time.Duration(start - hr.arrive)
	if qd > l.maxQueue {
		l.maxQueue = qd
	}
	l.queueHist[queueHistBucket(qd)]++

	fl := hr.fl
	hr.arrive = end.Add(l.lat)
	hr.hop++
	if int(hr.hop) < len(fl.route) {
		l.eng.Post(fl.route[hr.hop].eng, now.Add(l.lat), fireLinkResv, hr)
		return
	}
	// Last hop: the burst has crossed the destination's down link. The
	// down link's cursor is owned by the destination host's engine, so
	// delivery is a local event.
	if hr.final {
		fm := hr.fm
		fm.lastArrival = hr.arrive
		l.eng.AtCall(hr.arrive, fireFlowDeliver, fm)
		if fm.msg.OnAck != nil {
			fm.ackAt = hr.arrive.Add(fl.ackLat)
			l.eng.Post(fl.eng, fm.ackAt, fireFlowAck, fm)
		} else {
			l.eng.Post(fl.eng, hr.arrive.Add(fl.relLat), fireFlowRelease, fm)
		}
	}
	l.eng.Post(fl.eng, now.Add(fl.relLat), fireHopRecycle, hr)
}

// fireHopRecycle returns a spent hop reservation to its flow's free list
// on the source engine.
//partib:hotpath
func fireHopRecycle(_ sim.Time, arg any) {
	hr := arg.(*hopResv)
	fl := hr.fl
	hr.fm = nil
	fl.hopFree = append(fl.hopFree, hr) //partlint:allow hotpathalloc amortized free-list growth
}
