// Topology generalizes the fabric from one shared link to a multi-switch
// interconnect graph. A Topology comes in two modes:
//
//   - Flat topologies carry no switch state at all: every host pair is
//     connected directly and the topology only contributes a per-pair
//     extra propagation latency on top of Config.WireLatency. The
//     single-link topology (extra == 0 everywhere) reproduces the
//     original one-switch fabric byte for byte, and the two-level
//     topology adds a fixed extra to every cross-rack pair — both are
//     latency shapes, not contention models.
//
//   - Graph topologies (fat-tree, dragonfly) materialize switches and
//     links. Every switch-to-switch link and every switch-to-host down
//     link owns a serialization cursor with its own LogGP {latency,
//     byteTime} pair, so flows whose routes share a link genuinely
//     contend: bursts are charged on each hop's cursor in canonical
//     (arrival bound, source, flow) order, the same discipline the
//     ingress fix (DESIGN.md §11) uses, which keeps results bit-identical
//     across serial, sharded, and any worker-count runs.
//
// Routing is deterministic ECMP: where multiple equal-cost paths exist
// (fat-tree spine choice), the path is selected by a splitmix64 hash of
// (src, dst, flowID), so a flow's route is a pure function of its
// identity — independent of event order, shard layout, and worker count —
// and distinct QPs between one host pair spread across spines exactly the
// way multi-pathing spreads real QPs.
package fabric

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Link is one directed topology link with its own LogGP cost pair and a
// serialization cursor (graph topologies only). From and To are node IDs:
// hosts are 0..Hosts-1, switches Hosts..Hosts+Switches-1. Down links
// (switch→host) terminate at a host node; all other links connect
// switches. Host→switch injection is not a Link: it is charged by the
// host port's existing egress cursor at Config.LinkByteTime and crosses
// at Config.WireLatency, exactly as in the flat model.
type Link struct {
	// ID is the link's index in the topology (creation order).
	ID int
	// From and To are node IDs (see above).
	From, To int
	// Name labels the link in reports ("edge3->spine1", "down:h17").
	Name string
	// Latency is the propagation delay charged after serialization.
	Latency time.Duration
	// ByteTime is the per-byte serialization cost in ns/B; 0 inherits
	// Config.LinkByteTime when the fabric is built.
	ByteTime float64
	// OwnerHost is the host whose engine owns the link's cursor in a
	// sharded run. Owners are chosen so every hop's cross-engine post is
	// covered by the shard lookahead matrix (see cluster).
	OwnerHost int
}

// Topology describes the interconnect beyond the host NICs. Construct one
// with SingleLink, TwoLevel, NewFatTree, NewDragonfly, or ParseTopology,
// and install it via Config.Topo. The zero value is not usable.
type Topology struct {
	name  string
	hosts int // 0 = unbounded (flat topologies)
	flat  bool

	// extraFn is the per-pair extra one-way latency beyond
	// Config.WireLatency: the analytic shortest-path latency of the
	// route (graph mode) or the configured pair extra (flat mode). It
	// must be symmetric and must match the sum of route link latencies.
	extraFn func(a, b int) time.Duration
	// rackExtra is the two-level cross-rack extra, kept so validate can
	// reject a negative one.
	rackExtra time.Duration

	// Graph mode.
	links    []Link
	groupOf  []int // host -> switch-boundary group (edge switch / dragonfly group)
	ngroups  int
	minLink  time.Duration
	routeFn  func(src, dst int, flowID uint64) []int
	switches int

	// baseWire is stamped by Config.Topology() at resolve time so
	// PairLatency can include the host injection latency.
	baseWire time.Duration
}

// Name returns the topology's spec-style name ("single-link",
// "fat-tree:k=8", ...).
func (t *Topology) Name() string { return t.name }

// Hosts returns the host capacity, or 0 when unbounded (flat topologies
// accept any number of ports).
func (t *Topology) Hosts() int { return t.hosts }

// Switches returns the switch count (0 for flat topologies).
func (t *Topology) Switches() int { return t.switches }

// Flat reports whether the topology is latency-only (no link cursors).
func (t *Topology) Flat() bool { return t.flat }

// Links returns the number of contended links (0 for flat topologies).
func (t *Topology) Links() int { return len(t.links) }

// LinkAt returns link i.
func (t *Topology) LinkAt(i int) Link { return t.links[i] }

// Groups returns the number of switch-boundary host groups: hosts under
// one edge switch (fat-tree) or in one group (dragonfly) belong to the
// same group, and conservative-PDES shard slabs snap to these boundaries
// so no switch's local traffic straddles a shard. Flat topologies have a
// single group.
func (t *Topology) Groups() int {
	if t.ngroups == 0 {
		return 1
	}
	return t.ngroups
}

// GroupOf returns the switch-boundary group of a host (0 for flat
// topologies and hosts beyond the group table).
func (t *Topology) GroupOf(host int) int {
	if host < 0 || host >= len(t.groupOf) {
		return 0
	}
	return t.groupOf[host]
}

// MinLinkLatency returns the smallest link latency (0 for flat
// topologies). It participates in Config.Lookahead: cross-shard hop
// forwarding between link cursors is separated by at least one link
// latency.
func (t *Topology) MinLinkLatency() time.Duration {
	if t.flat {
		return 0
	}
	return t.minLink
}

// PairExtra returns the extra one-way latency between two hosts beyond
// Config.WireLatency: zero in the single-link topology, the cross-rack
// extra in the two-level topology, and the sum of route link latencies in
// graph topologies. It is symmetric, and identical across every
// equal-cost route candidate by construction.
func (t *Topology) PairExtra(a, b int) time.Duration {
	if t.extraFn == nil {
		return 0
	}
	return t.extraFn(a, b)
}

// PairLatency returns the one-way host-to-host propagation latency floor:
// the host injection latency (Config.WireLatency, stamped at resolve
// time) plus PairExtra. Every effect host a schedules onto host b is at
// least this far in the future, which is what makes it the per-pair
// conservative-PDES lookahead bound the cluster's shard matrix reads.
func (t *Topology) PairLatency(a, b int) time.Duration {
	return t.baseWire + t.PairExtra(a, b)
}

// Route returns the link IDs a flow (src, dst, flowID) traverses after
// host injection, ending with dst's down link, or nil for flat
// topologies (direct delivery, the original pipeline). The route is a
// pure function of its arguments: same inputs, same path, on any shard
// or worker count.
func (t *Topology) Route(src, dst int, flowID uint64) []int {
	if t.routeFn == nil {
		return nil
	}
	return t.routeFn(src, dst, flowID)
}

// RelayPairs invokes fn for every (into, outof) link pair adjacent at a
// switch — every cursor-to-cursor hop a routed burst can take, each
// separated by the in-link's latency. The cluster's lookahead matrix
// relaxes shard pairs over these edges. No-op on flat topologies.
func (t *Topology) RelayPairs(fn func(in, out Link)) {
	if t.flat {
		return
	}
	// Deterministic iteration: index out-links per switch node.
	first := t.hosts
	outOf := make([][]int, t.switches)
	for i := range t.links {
		s := t.links[i].From - first
		outOf[s] = append(outOf[s], i)
	}
	for i := range t.links {
		in := t.links[i]
		if in.To < first {
			continue // down link: terminates at a host, nothing to relay
		}
		for _, oi := range outOf[in.To-first] {
			fn(in, t.links[oi])
		}
	}
}

// maxTopoLatency bounds every topology latency (a two-level extra, a
// graph link) so sums along routes and lookahead paths stay far from
// Duration overflow.
const maxTopoLatency = time.Second

// maxTopoLinks bounds a graph generator's link count, so an oversized
// spec (fat-tree:k=100000) fails with an error instead of exhausting
// memory. It admits fat-trees up to k=294 and dragonflies up to ~360
// groups.
const maxTopoLinks = 1 << 17

// validate reports construction errors. A two-level extra must lie in
// [0, maxTopoLatency]: a negative one would make cross-rack traffic
// faster than in-rack traffic and break the per-pair lookahead floor.
// Graph links must have positive latency (cross-engine hops need a
// positive conservative bound) no larger than maxTopoLatency, and
// non-negative byte time.
func (t *Topology) validate() error {
	if t == nil {
		return nil
	}
	if t.flat {
		if t.rackExtra < 0 || t.rackExtra > maxTopoLatency {
			return fmt.Errorf("fabric: topology %q extra %v out of range [0, %v]", t.name, t.rackExtra, maxTopoLatency)
		}
		return nil
	}
	if t.hosts < 1 {
		return fmt.Errorf("fabric: topology %q has no hosts", t.name)
	}
	for i := range t.links {
		l := &t.links[i]
		if l.Latency <= 0 || l.Latency > maxTopoLatency {
			return fmt.Errorf("fabric: topology %q link %q latency %v out of range (0, %v]", t.name, l.Name, l.Latency, maxTopoLatency)
		}
		if l.ByteTime < 0 {
			return fmt.Errorf("fabric: topology %q link %q has negative byte time", t.name, l.Name)
		}
		if l.OwnerHost < 0 || l.OwnerHost >= t.hosts {
			return fmt.Errorf("fabric: topology %q link %q owner host %d out of range", t.name, l.Name, l.OwnerHost)
		}
		if l.To < t.hosts && l.OwnerHost != l.To {
			// The completion/recycle return path after the down link is
			// bounded by the destination pair's lookahead, which is only
			// sound if the down link's cursor runs on the destination.
			return fmt.Errorf("fabric: topology %q down link %q must be owned by its host %d", t.name, l.Name, l.To)
		}
	}
	return nil
}

// splitmix64 is the standard splitmix64 finalizer: a bijective avalanche
// mix, the same generator the bench jitter and shard barrier seeds use.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// routeHash mixes a flow identity into the ECMP path-selection hash.
func routeHash(src, dst int, flowID uint64) uint64 {
	return splitmix64(splitmix64(uint64(src)) ^ splitmix64(uint64(dst)<<20) ^ splitmix64(flowID<<40|flowID))
}

// SingleLink returns the flat single-switch topology: every host pair at
// the base wire latency, no extra hops, no link cursors. A fabric built
// with it is byte-identical to one built with no topology at all.
func SingleLink() *Topology {
	return &Topology{name: "single-link", flat: true}
}

// TwoLevel returns the flat two-level rack topology: hosts in racks of
// rackSize consecutive IDs (ports are created in node order, so
// contiguous IDs are physical neighbours), with extra added to every
// cross-rack interaction (wire, ack, control) — the longer path through
// the aggregation level of the switch hierarchy. It is a latency shape
// only: cross-rack flows do not contend on an aggregation cursor. A
// rackSize of zero or less puts every host in one rack. A negative extra
// fails validation.
func TwoLevel(rackSize int, extra time.Duration) *Topology {
	t := &Topology{
		name:      fmt.Sprintf("two-level:rack=%d,extra=%s", rackSize, extra),
		flat:      true,
		rackExtra: extra,
	}
	if rackSize > 0 {
		t.extraFn = func(a, b int) time.Duration {
			if a/rackSize == b/rackSize {
				return 0
			}
			return extra
		}
	}
	return t
}

// FatTreeConfig parameterizes NewFatTree.
type FatTreeConfig struct {
	// K is the switch radix: K edge switches with K/2 hosts each, K/2
	// spines, every edge wired to every spine (a two-level folded Clos,
	// K*K/2 hosts). K must be even and >= 2.
	K int
	// Cable is the edge<->spine link latency. Zero selects 500 ns.
	Cable time.Duration
	// Down is the edge->host link latency. Zero selects 1 µs (the
	// default WireLatency, keeping host attach symmetric).
	Down time.Duration
	// ByteTime is the per-byte cost of every fabric link in ns/B; zero
	// inherits Config.LinkByteTime (a full-bisection, untapered tree).
	ByteTime float64
}

// NewFatTree builds a two-level folded-Clos (leaf/spine fat-tree)
// topology. Routing between edges is ECMP over the spines, hashed per
// flow; hosts under one edge switch form one shard-snap group.
func NewFatTree(cfg FatTreeConfig) (*Topology, error) {
	if cfg.K < 2 || cfg.K%2 != 0 {
		return nil, fmt.Errorf("fabric: fat-tree K %d must be even and >= 2", cfg.K)
	}
	if cfg.K > maxTopoLinks || 3*cfg.K*cfg.K/2 > maxTopoLinks {
		return nil, fmt.Errorf("fabric: fat-tree K %d exceeds the %d-link limit", cfg.K, maxTopoLinks)
	}
	if cfg.Cable == 0 {
		cfg.Cable = 500 * time.Nanosecond
	}
	if cfg.Down == 0 {
		cfg.Down = time.Microsecond
	}
	if cfg.Cable < 0 || cfg.Down < 0 || cfg.ByteTime < 0 {
		return nil, fmt.Errorf("fabric: fat-tree has negative cost parameters")
	}
	k := cfg.K
	edges, spines, perEdge := k, k/2, k/2
	hosts := edges * perEdge
	t := &Topology{
		name:     fmt.Sprintf("fat-tree:k=%d", k),
		hosts:    hosts,
		switches: edges + spines,
		ngroups:  edges,
		minLink:  minDuration(cfg.Cable, cfg.Down),
	}
	t.groupOf = make([]int, hosts)
	for h := range t.groupOf {
		t.groupOf[h] = h / perEdge
	}
	edgeNode := func(e int) int { return hosts + e }
	spineNode := func(s int) int { return hosts + edges + s }
	// Link layout: [e*spines+s] up links, then [s*edges+e] down-to-edge
	// links, then one down link per host.
	up := func(e, s int) int { return e*spines + s }
	dn := func(s, e int) int { return edges*spines + s*edges + e }
	hostDown := func(h int) int { return 2*edges*spines + h }
	t.links = make([]Link, 2*edges*spines+hosts)
	for e := 0; e < edges; e++ {
		for s := 0; s < spines; s++ {
			t.links[up(e, s)] = Link{
				ID: up(e, s), From: edgeNode(e), To: spineNode(s),
				Name:    fmt.Sprintf("edge%d->spine%d", e, s),
				Latency: cfg.Cable, ByteTime: cfg.ByteTime,
				OwnerHost: e * perEdge,
			}
			t.links[dn(s, e)] = Link{
				ID: dn(s, e), From: spineNode(s), To: edgeNode(e),
				Name:    fmt.Sprintf("spine%d->edge%d", s, e),
				Latency: cfg.Cable, ByteTime: cfg.ByteTime,
				// Owned by the destination edge's first host: the hop
				// into this link crosses shards at one cable latency,
				// which the cluster matrix accounts for.
				OwnerHost: e * perEdge,
			}
		}
	}
	for h := 0; h < hosts; h++ {
		t.links[hostDown(h)] = Link{
			ID: hostDown(h), From: edgeNode(h / perEdge), To: h,
			Name:    fmt.Sprintf("down:h%d", h),
			Latency: cfg.Down, ByteTime: cfg.ByteTime,
			OwnerHost: h,
		}
	}
	t.extraFn = func(a, b int) time.Duration {
		if a/perEdge == b/perEdge {
			return cfg.Down
		}
		return 2*cfg.Cable + cfg.Down
	}
	t.routeFn = func(src, dst int, flowID uint64) []int {
		es, ed := src/perEdge, dst/perEdge
		if es == ed {
			return []int{hostDown(dst)}
		}
		s := int(routeHash(src, dst, flowID) % uint64(spines))
		return []int{up(es, s), dn(s, ed), hostDown(dst)}
	}
	return t, nil
}

// DragonflyConfig parameterizes NewDragonfly.
type DragonflyConfig struct {
	// Groups, Routers (per group), and HostsPer (per router) size the
	// fabric: Groups*Routers*HostsPer hosts. Defaults (zeros) select the
	// balanced a=2h shape around HostsPer=2: 9 groups x 4 routers x 2
	// hosts = 72 hosts.
	Groups, Routers, HostsPer int
	// Cable is the intra-group (router all-to-all) link latency. Zero
	// selects 500 ns.
	Cable time.Duration
	// Global is the inter-group optical link latency. Zero selects
	// 5*Cable; it must be at least 2*Cable so minimal routing stays a
	// metric (triangle inequality over host pairs).
	Global time.Duration
	// Down is the router->host link latency. Zero selects 1 µs.
	Down time.Duration
	// ByteTime is the per-byte cost of every fabric link in ns/B; zero
	// inherits Config.LinkByteTime.
	ByteTime float64
}

// NewDragonfly builds a dragonfly: groups of all-to-all-connected
// routers, one global link per ordered group pair between deterministic
// gateway routers, minimal routing. Hosts in one group form one
// shard-snap group.
func NewDragonfly(cfg DragonflyConfig) (*Topology, error) {
	if cfg.HostsPer == 0 {
		cfg.HostsPer = 2
	}
	if cfg.Routers == 0 {
		cfg.Routers = 2 * cfg.HostsPer
	}
	if cfg.Groups == 0 {
		cfg.Groups = cfg.Routers*cfg.HostsPer + 1
	}
	if cfg.Groups < 2 || cfg.Routers < 1 || cfg.HostsPer < 1 {
		return nil, fmt.Errorf("fabric: dragonfly needs >= 2 groups and positive routers/hosts, got g=%d a=%d h=%d",
			cfg.Groups, cfg.Routers, cfg.HostsPer)
	}
	if cfg.Cable == 0 {
		cfg.Cable = 500 * time.Nanosecond
	}
	if cfg.Global == 0 {
		cfg.Global = 5 * cfg.Cable
	}
	if cfg.Down == 0 {
		cfg.Down = time.Microsecond
	}
	if cfg.Cable < 0 || cfg.Down < 0 || cfg.ByteTime < 0 {
		return nil, fmt.Errorf("fabric: dragonfly has negative cost parameters")
	}
	if cfg.Global < 2*cfg.Cable {
		return nil, fmt.Errorf("fabric: dragonfly Global %v must be >= 2*Cable %v (minimal routing must satisfy the triangle inequality)",
			cfg.Global, cfg.Cable)
	}
	g, a, hp := cfg.Groups, cfg.Routers, cfg.HostsPer
	if g > maxTopoLinks || a > maxTopoLinks || hp > maxTopoLinks ||
		g*a*(a-1)+g*(g-1)+g*a*hp > maxTopoLinks {
		return nil, fmt.Errorf("fabric: dragonfly g=%d a=%d h=%d exceeds the %d-link limit", g, a, hp, maxTopoLinks)
	}
	hosts := g * a * hp
	routers := g * a
	t := &Topology{
		name:     fmt.Sprintf("dragonfly:groups=%d,routers=%d,hosts=%d", g, a, hp),
		hosts:    hosts,
		switches: routers,
		ngroups:  g,
		minLink:  minDuration(cfg.Cable, minDuration(cfg.Global, cfg.Down)),
	}
	t.groupOf = make([]int, hosts)
	for h := range t.groupOf {
		t.groupOf[h] = h / (a * hp)
	}
	routerNode := func(r int) int { return hosts + r }
	routerOf := func(h int) int { return h / hp }
	firstHost := func(r int) int { return r * hp }
	// gateway returns the router in group from that holds the global
	// link toward group to.
	gateway := func(from, to int) int { return from*a + to%a }

	// Link layout: intra-group all-to-all (a*(a-1) per group), then one
	// global link per ordered group pair, then one down link per host.
	intraBase := 0
	intraPerGroup := a * (a - 1)
	intra := func(r1, r2 int) int {
		grp := r1 / a
		i, j := r1%a, r2%a
		if j > i {
			j--
		}
		return intraBase + grp*intraPerGroup + i*(a-1) + j
	}
	globalBase := g * intraPerGroup
	global := func(g1, g2 int) int {
		j := g2
		if j > g1 {
			j--
		}
		return globalBase + g1*(g-1) + j
	}
	downBase := globalBase + g*(g-1)
	down := func(h int) int { return downBase + h }

	t.links = make([]Link, downBase+hosts)
	for r1 := 0; r1 < routers; r1++ {
		for r2 := (r1 / a) * a; r2 < (r1/a)*a+a; r2++ {
			if r1 == r2 {
				continue
			}
			id := intra(r1, r2)
			t.links[id] = Link{
				ID: id, From: routerNode(r1), To: routerNode(r2),
				Name:    fmt.Sprintf("intra:r%d->r%d", r1, r2),
				Latency: cfg.Cable, ByteTime: cfg.ByteTime,
				OwnerHost: firstHost(r1),
			}
		}
	}
	for g1 := 0; g1 < g; g1++ {
		for g2 := 0; g2 < g; g2++ {
			if g1 == g2 {
				continue
			}
			id := global(g1, g2)
			t.links[id] = Link{
				ID: id, From: routerNode(gateway(g1, g2)), To: routerNode(gateway(g2, g1)),
				Name:    fmt.Sprintf("global:g%d->g%d", g1, g2),
				Latency: cfg.Global, ByteTime: cfg.ByteTime,
				OwnerHost: firstHost(gateway(g1, g2)),
			}
		}
	}
	for h := 0; h < hosts; h++ {
		id := down(h)
		t.links[id] = Link{
			ID: id, From: routerNode(routerOf(h)), To: h,
			Name:    fmt.Sprintf("down:h%d", h),
			Latency: cfg.Down, ByteTime: cfg.ByteTime,
			OwnerHost: h,
		}
	}
	t.extraFn = func(x, y int) time.Duration {
		rx, ry := routerOf(x), routerOf(y)
		if rx == ry {
			return cfg.Down
		}
		gx, gy := rx/a, ry/a
		if gx == gy {
			return cfg.Cable + cfg.Down
		}
		d := cfg.Global + cfg.Down
		if rx != gateway(gx, gy) {
			d += cfg.Cable
		}
		if ry != gateway(gy, gx) {
			d += cfg.Cable
		}
		return d
	}
	t.routeFn = func(src, dst int, flowID uint64) []int {
		rs, rd := routerOf(src), routerOf(dst)
		if rs == rd {
			return []int{down(dst)}
		}
		gs, gd := rs/a, rd/a
		if gs == gd {
			return []int{intra(rs, rd), down(dst)}
		}
		// Minimal dragonfly routing has a single candidate path; the
		// hash-selected ECMP spread lives in the fat-tree generator.
		route := make([]int, 0, 4)
		gwS, gwD := gateway(gs, gd), gateway(gd, gs)
		if rs != gwS {
			route = append(route, intra(rs, gwS))
		}
		route = append(route, global(gs, gd))
		if gwD != rd {
			route = append(route, intra(gwD, rd))
		}
		return append(route, down(dst))
	}
	return t, nil
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// ParseTopology parses the -topo flag grammar:
//
//	single-link
//	two-level:rack=8[,extra=750ns]
//	fat-tree:k=8[,cable=500ns][,down=1us][,G=0.085]
//	dragonfly:groups=9,routers=4,hosts=2[,cable=500ns][,global=2500ns][,down=1us][,G=0.085]
//
// Durations use Go syntax (500ns, 1us, 1.5ms); G is the per-byte link
// cost in ns/B (0 inherits the fabric's LinkByteTime). An empty spec
// selects single-link. Every topology it returns passes validation: a
// negative two-level extra, a latency above maxTopoLatency, or a graph
// above maxTopoLinks is an error.
func ParseTopology(spec string) (*Topology, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	kv := map[string]string{}
	if rest != "" {
		for _, f := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(f, "=")
			if !ok || k == "" {
				return nil, fmt.Errorf("fabric: topology spec %q: want key=value, got %q", spec, f)
			}
			kv[k] = v
		}
	}
	getInt := func(key string, def int) (int, error) {
		v, ok := kv[key]
		if !ok {
			return def, nil
		}
		delete(kv, key)
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("fabric: topology spec %q: %s: %v", spec, key, err)
		}
		return n, nil
	}
	getDur := func(key string, def time.Duration) (time.Duration, error) {
		v, ok := kv[key]
		if !ok {
			return def, nil
		}
		delete(kv, key)
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, fmt.Errorf("fabric: topology spec %q: %s: %v", spec, key, err)
		}
		return d, nil
	}
	getFloat := func(key string, def float64) (float64, error) {
		v, ok := kv[key]
		if !ok {
			return def, nil
		}
		delete(kv, key)
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("fabric: topology spec %q: %s: %v", spec, key, err)
		}
		return f, nil
	}
	finish := func(t *Topology, err error) (*Topology, error) {
		if err != nil {
			return nil, err
		}
		if len(kv) > 0 {
			keys := make([]string, 0, len(kv))
			for k := range kv {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return nil, fmt.Errorf("fabric: topology spec %q: unknown key %q", spec, keys[0])
		}
		if err := t.validate(); err != nil {
			return nil, err
		}
		return t, nil
	}
	switch kind {
	case "", "single-link":
		return finish(SingleLink(), nil)
	case "two-level":
		rack, err := getInt("rack", 0)
		if err != nil {
			return nil, err
		}
		if rack <= 0 {
			return nil, fmt.Errorf("fabric: topology spec %q needs rack=N > 0", spec)
		}
		extra, err := getDur("extra", 750*time.Nanosecond)
		if err != nil {
			return nil, err
		}
		return finish(TwoLevel(rack, extra), nil)
	case "fat-tree":
		var cfg FatTreeConfig
		var err error
		if cfg.K, err = getInt("k", 4); err != nil {
			return nil, err
		}
		if cfg.Cable, err = getDur("cable", 0); err != nil {
			return nil, err
		}
		if cfg.Down, err = getDur("down", 0); err != nil {
			return nil, err
		}
		if cfg.ByteTime, err = getFloat("G", 0); err != nil {
			return nil, err
		}
		return finish(NewFatTree(cfg))
	case "dragonfly":
		var cfg DragonflyConfig
		var err error
		if cfg.Groups, err = getInt("groups", 0); err != nil {
			return nil, err
		}
		if cfg.Routers, err = getInt("routers", 0); err != nil {
			return nil, err
		}
		if cfg.HostsPer, err = getInt("hosts", 0); err != nil {
			return nil, err
		}
		if cfg.Cable, err = getDur("cable", 0); err != nil {
			return nil, err
		}
		if cfg.Global, err = getDur("global", 0); err != nil {
			return nil, err
		}
		if cfg.Down, err = getDur("down", 0); err != nil {
			return nil, err
		}
		if cfg.ByteTime, err = getFloat("G", 0); err != nil {
			return nil, err
		}
		return finish(NewDragonfly(cfg))
	default:
		return nil, fmt.Errorf("fabric: unknown topology kind %q (have single-link, two-level, fat-tree, dragonfly)", kind)
	}
}
