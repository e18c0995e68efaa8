package simnet

import (
	"net/netip"
	"time"

	"reorder/internal/host"
	"reorder/internal/netem"
	"reorder/internal/sim"
	"reorder/internal/tcpsender"
	"reorder/internal/trace"
)

// TopologySpec describes a scenario as a routed graph instead of a single
// prober↔target pipe: named routers joined by bundles of parallel
// queue-limited links, with the probe's access path attached at the first
// router and the published server at the last, optional cross-traffic
// hosts parked at routers, and background TCP flows loading the shared
// links while a probe runs. Queueing delay, droptail loss and — on
// multi-link bundles — reordering are all emergent: they happen because
// traffic contends for the same FIFO queues, not because any element drew
// a probability.
//
// The zero/empty spec (no routers) is the degenerate two-node case: the
// same constructor builds the classic point-to-point pipe, byte-identical
// to a nil Topology.
type TopologySpec struct {
	// Routers are the graph's forwarding nodes.
	Routers []RouterSpec
	// Links join routers with bundles of parallel equal-cost links.
	Links []LinkSpec
	// CrossHosts are additional addressable endpoints attached to routers,
	// the destinations cross-traffic flows pour into.
	CrossHosts []CrossHostSpec
	// Flows are background TCP transfers (tcpsender sources attached to
	// routers) that load the graph's links during a probe.
	Flows []FlowSpec
}

// RouterSpec names one forwarding node.
type RouterSpec struct {
	Name string
}

// LinkSpec is a bundle of Parallel equal-cost links joining routers A and
// B (both directions). Bundles with Parallel > 1 are sprayed per-packet
// round-robin by the upstream router — the §V "parallelism in network
// devices" reordering cause, here driven by real queue contention.
type LinkSpec struct {
	A, B string
	// Parallel is the number of equal-cost links in the bundle (default 1).
	Parallel int
	// RateBps is each link's line rate (default 10 Mbps).
	RateBps int64
	// Delay is each link's propagation delay (default 1ms).
	Delay time.Duration
	// QueueLimit is each link's droptail queue capacity in packets
	// (default 32).
	QueueLimit int
}

// CrossHostSpec parks an addressable endpoint at a router. Addresses are
// assigned by position: CrossHostAddr(i) for the i'th spec.
type CrossHostSpec struct {
	Name   string
	Router string
	// Profile is the host's implementation profile; it must listen on the
	// flow destination port (80) to sink cross traffic.
	Profile host.Profile
}

// FlowSpec is one background TCP transfer: a tcpsender attached at Router
// (address FlowSourceAddr(i)) pushing Bytes to the cross host named To.
type FlowSpec struct {
	Router string
	To     string
	// Bytes is the transfer size (default 256 KiB).
	Bytes int
	// Start is the virtual time the flow opens its connection.
	Start time.Duration
}

// Cross-traffic addressing: cross hosts and flow sources get fixed
// per-index addresses, disjoint from the probe (10.0.0.1) and server
// (10.0.1.1) blocks.
func CrossHostAddr(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 2, byte(1 + i)}) }

// FlowSourceAddr returns the address of the i'th flow's sender.
func FlowSourceAddr(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 3, byte(1 + i)}) }

// isGraph reports whether the spec describes a routed graph; nil and
// router-less specs build the degenerate point-to-point pipe.
func (t *TopologySpec) isGraph() bool { return t != nil && len(t.Routers) > 0 }

// accessLink is every endpoint access link of a graph (server, cross hosts,
// flow sources): fast enough that endpoint attachment never masks the
// bottlenecks under study.
var accessLink = netem.LinkConfig{RateBps: 1_000_000_000, PropDelay: 200 * time.Microsecond}

func (l LinkSpec) config() netem.LinkConfig {
	cfg := netem.LinkConfig{RateBps: l.RateBps, PropDelay: l.Delay, QueueLimit: l.QueueLimit}
	if cfg.RateBps == 0 {
		cfg.RateBps = 10_000_000
	}
	if cfg.PropDelay == 0 {
		cfg.PropDelay = time.Millisecond
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 32
	}
	return cfg
}

func (l LinkSpec) parallel() int {
	if l.Parallel <= 0 {
		return 1
	}
	return l.Parallel
}

func (t *TopologySpec) routerIndex(name string) int {
	for i := range t.Routers {
		if t.Routers[i].Name == name {
			return i
		}
	}
	return -1
}

func (t *TopologySpec) mustRouter(name, what string) int {
	if i := t.routerIndex(name); i >= 0 {
		return i
	}
	panic("simnet: topology " + what + " references unknown router " + name)
}

// senderEntry pairs a pooled cross-traffic sender with its retained random
// stream.
type senderEntry struct {
	el  *tcpsender.Sender
	rng *sim.Rand
}

// graphScratch is the topology builder's reusable working storage: the
// per-edge port-group table and the BFS next-hop machinery.
type graphScratch struct {
	// groupAB and groupBA hold, per LinkSpec, the port-group index the
	// bundle registered on its A-side and B-side router.
	groupAB, groupBA []int
	// toward[r*nr+d] is the port group on router r leading toward router d
	// (unused for r == d).
	toward []int
	// prev and queue are the BFS scratch.
	prev, queue []int
	// ab and ba collect one bundle's links per direction before the
	// routers copy them into their port tables.
	ab, ba []netem.Node
}

// buildGraph wires a routed topology. Construction order — and therefore
// the order the build stream is consumed in — is frozen as part of the
// hermeticity contract: reverse probe access path, server host(s), cross
// hosts, flow senders, forward probe access path. Inter-router links and
// routing tables consume no randomness.
func (n *Net) buildGraph(cfg Config, rng *sim.Rand, tap func(*trace.Capture, netem.Node) netem.Node) {
	t := cfg.Topology
	nr := len(t.Routers)
	for i := range t.Routers {
		if t.routerIndex(t.Routers[i].Name) != i {
			panic("simnet: topology has duplicate router name " + t.Routers[i].Name)
		}
		n.Routers = append(n.Routers, n.getRouter())
	}
	pi, ti := 0, nr-1 // the probe's and the server's routers

	// Inter-router bundles: one port group per spec link per direction,
	// each group holding Parallel queue-limited links into the far router.
	g := &n.pool.graph
	g.groupAB, g.groupBA = g.groupAB[:0], g.groupBA[:0]
	for _, l := range t.Links {
		a := t.mustRouter(l.A, "link")
		b := t.mustRouter(l.B, "link")
		lc := l.config()
		par := l.parallel()
		g.ab, g.ba = g.ab[:0], g.ba[:0]
		for p := 0; p < par; p++ {
			g.ab = append(g.ab, n.getLink(lc, n.Routers[b]))
			g.ba = append(g.ba, n.getLink(lc, n.Routers[a]))
		}
		g.groupAB = append(g.groupAB, n.Routers[a].AddGroup(g.ab...))
		g.groupBA = append(g.groupBA, n.Routers[b].AddGroup(g.ba...))
	}
	n.computeNextHops(t)

	// addRouteAll installs addr on every router: the local group at the
	// endpoint's home router, the precomputed next-hop group elsewhere.
	addRouteAll := func(addr netip.Addr, home, localGroup int) {
		for r := 0; r < nr; r++ {
			if r == home {
				n.Routers[r].AddRoute(addr, localGroup)
			} else {
				n.Routers[r].AddRoute(addr, g.toward[r*nr+home])
			}
		}
	}

	// Probe access, reverse direction: probe router -> [middlebox] ->
	// reverse path (the scenario's Reverse impairments) -> probe ingress
	// tap -> probe inbox.
	revEntry := n.probeAccess(cfg, rng, DirReverse, tap(n.ProbeIngress, n.probeSink))
	addRouteAll(n.probeAddr, pi, n.Routers[pi].AddGroup(revEntry))

	// Server(s) behind the target router: host egress tap -> access uplink
	// -> target router; target router -> access downlink -> host ingress
	// tap -> server side.
	hostOut := tap(n.HostEgress, n.getLink(accessLink, n.Routers[ti]))
	serverSide := n.buildServers(cfg, rng, hostOut)
	srvDown := n.getLink(accessLink, tap(n.HostIngress, serverSide))
	addRouteAll(n.serverAddr, ti, n.Routers[ti].AddGroup(srvDown))

	// Cross hosts: plain endpoints, no capture taps.
	for i, ch := range t.CrossHosts {
		ri := t.mustRouter(ch.Router, "cross host "+ch.Name)
		addr := CrossHostAddr(i)
		up := n.getLink(accessLink, n.Routers[ri])
		h := n.getHost(ch.Profile, addr, rng, uint64(200+i), up)
		n.Hosts = append(n.Hosts, h)
		down := n.getLink(accessLink, h)
		addRouteAll(addr, ri, n.Routers[ri].AddGroup(down))
	}

	// Background flows: tcpsender sources, one per spec, started on the
	// loop at their configured times.
	for i, fl := range t.Flows {
		ri := t.mustRouter(fl.Router, "flow")
		dst := -1
		for j := range t.CrossHosts {
			if t.CrossHosts[j].Name == fl.To {
				dst = j
				break
			}
		}
		if dst < 0 {
			panic("simnet: topology flow references unknown cross host " + fl.To)
		}
		scfg := tcpsender.Config{Bytes: fl.Bytes}
		if scfg.Bytes == 0 {
			scfg.Bytes = 256 << 10
		}
		src := FlowSourceAddr(i)
		up := n.getLink(accessLink, n.Routers[ri])
		snd := n.getSender(scfg, src, CrossHostAddr(dst), rng, uint64(0x5e0d+i), up, fl.Start)
		down := n.getLink(accessLink, snd)
		addRouteAll(src, ri, n.Routers[ri].AddGroup(down))
	}

	// Probe access, forward direction: probe egress tap -> [middlebox] ->
	// forward path (the scenario's Forward impairments) -> probe router.
	n.probe.egress = tap(n.ProbeEgress, n.probeAccess(cfg, rng, DirForward, n.Routers[pi]))
}

// computeNextHops fills graph.toward with, for every (router r, destination
// router d) pair, the port group on r leading one hop closer to d — a BFS
// per destination over the link graph, neighbor order following spec order
// so routing is deterministic. Panics if the graph is disconnected.
func (n *Net) computeNextHops(t *TopologySpec) {
	g := &n.pool.graph
	nr := len(t.Routers)
	if cap(g.toward) < nr*nr {
		g.toward = make([]int, nr*nr)
		g.prev = make([]int, nr)
		g.queue = make([]int, 0, nr)
	}
	g.toward = g.toward[:nr*nr]
	g.prev = g.prev[:nr]

	// groupBetween returns the port group on router a for its first spec
	// bundle to neighbor b.
	groupBetween := func(a, b int) int {
		for li, l := range t.Links {
			la, lb := t.routerIndex(l.A), t.routerIndex(l.B)
			if la == a && lb == b {
				return g.groupAB[li]
			}
			if lb == a && la == b {
				return g.groupBA[li]
			}
		}
		return -1
	}

	for d := 0; d < nr; d++ {
		for i := range g.prev {
			g.prev[i] = -1
		}
		g.prev[d] = d
		q := append(g.queue[:0], d)
		for len(q) > 0 {
			x := q[0]
			q = q[1:]
			for _, l := range t.Links {
				a, b := t.mustRouter(l.A, "link"), t.mustRouter(l.B, "link")
				var nb int
				switch x {
				case a:
					nb = b
				case b:
					nb = a
				default:
					continue
				}
				if g.prev[nb] < 0 {
					g.prev[nb] = x
					q = append(q, nb)
				}
			}
		}
		for r := 0; r < nr; r++ {
			if r == d {
				continue
			}
			if g.prev[r] < 0 {
				panic("simnet: topology graph is disconnected (no route between " +
					t.Routers[r].Name + " and " + t.Routers[d].Name + ")")
			}
			// prev[r] was discovered from the d side, so it is r's next hop
			// toward d.
			g.toward[r*nr+d] = groupBetween(r, g.prev[r])
		}
	}
}

// getRouter returns a pooled router, Reinit'd for a fresh table.
func (n *Net) getRouter() *netem.Router {
	r, ok := n.pool.routers.take()
	if ok {
		r.Reinit()
	} else {
		r = netem.NewRouter()
	}
	return n.pool.routers.keep(r)
}

// getSender returns a pooled cross-traffic sender reset for cfg (reseeding
// its retained stream exactly as a fresh fork would draw) and schedules its
// Start at the flow's configured virtual time.
func (n *Net) getSender(cfg tcpsender.Config, local, remote netip.Addr, rng *sim.Rand, label uint64, out netem.Node, start time.Duration) *tcpsender.Sender {
	e, ok := n.pool.senders.take()
	e.rng = rng.ForkInto(e.rng, label)
	if ok {
		e.el.Reset(cfg, local, remote, e.rng, out)
	} else {
		e.el = tcpsender.New(n.Loop, cfg, local, remote, n.IDs, e.rng, out)
	}
	e.el.SetArena(n.arena)
	n.pool.senders.keep(e)
	n.Senders = append(n.Senders, e.el)
	n.Loop.AtArg(sim.Time(0).Add(start), startSender, e.el)
	return e.el
}

// startSender is a cross-traffic flow's start event; its arg is the sender.
func startSender(s any) { s.(*tcpsender.Sender).Start() }
