// Package simnet assembles complete measurement scenarios: a probe host
// connected through configurable forward and reverse network paths to one
// simulated server (or a load-balanced pool of them), with ground-truth
// capture taps at the points the paper's controlled validation used
// (§IV-A). It provides the synchronous probe transport the measurement
// library (internal/core) drives.
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

// PathSpec describes the impairments of one direction of the path.
type PathSpec struct {
	// LinkRate is the access link rate in bits per second (default 10 Mbps).
	LinkRate int64
	// Jitter adds uniform random extra delay in [0, Jitter) per packet.
	Jitter time.Duration
	// Loss is the independent drop probability.
	Loss float64
	// Corrupt is the probability a datagram has one bit flipped in flight;
	// receivers drop damaged datagrams at checksum validation, so corruption
	// reads as loss. Corruption mutates wire bytes, which is what forces a
	// zero-copy frame view to materialize mid-path.
	Corrupt float64
	// SwapProb enables a dummynet-style adjacent-packet swapper.
	SwapProb float64
	// SwapProbFn, if set, overrides SwapProb with a time-varying rate.
	SwapProbFn func(sim.Time) float64
	// Trunk, if set, inserts a striped parallel trunk (gap-dependent
	// reordering, Fig 7).
	Trunk *netem.TrunkConfig
	// MultiPath, if set, sprays packets per-packet across unequal paths
	// (the "multi-path routing" reordering cause).
	MultiPath *netem.MultiPathConfig
	// ARQ, if set, inserts a lossy layer-2 link with retransmission (the
	// "layer 2 retransmission" cause; wireless-style).
	ARQ *netem.ARQConfig
	// MTU, when nonzero, fragments oversized frames at the path entrance;
	// fragments traverse (and may be reordered by) the rest of the path.
	MTU int
	// Priority, if set, inserts a DiffServ-style strict-priority
	// scheduler (the remaining §V reordering cause; only flows with mixed
	// TOS markings are affected).
	Priority *netem.PriorityConfig
}

func (s PathSpec) defaults() PathSpec {
	if s.LinkRate == 0 {
		s.LinkRate = 10_000_000
	}
	return s
}

// pathDelay is each direction's one-way propagation delay.
const pathDelay = 5 * time.Millisecond

// Config describes a scenario.
type Config struct {
	// Seed makes the whole scenario deterministic.
	Seed uint64
	// Forward and Reverse are the path impairments in each direction.
	Forward, Reverse PathSpec
	// Topology, when it describes a routed graph (at least one router),
	// replaces the point-to-point wiring: the probe and server attach to
	// routers through their access paths (Forward/Reverse still apply to
	// the probe's access), and cross-traffic hosts, flows and shared
	// bottleneck links live between them. A nil or empty Topology is the
	// degenerate two-node case — the same constructor builds the classic
	// prober↔target pipe, byte-identically.
	Topology *TopologySpec
	// Scenario, when set, overlays a time-varying/adversarial scenario on
	// the topology: per-direction middlebox elements plus a timeline of
	// impairment mutations driven by loop timers. A nil Scenario is the
	// static case, byte-identical to builds before scenarios existed.
	Scenario *ScenarioSpec
	// Server is the host profile. Ignored if Backends is non-empty.
	Server host.Profile
	// Backends, when non-empty, places a transparent load balancer in
	// front of len(Backends) hosts that all answer as the server address.
	Backends []host.Profile
	// DisableCaptures skips wiring the four ground-truth capture taps.
	// Taps are synchronous pass-throughs — they schedule no events and
	// consume no randomness — so disabling them changes nothing observable
	// about a measurement; campaigns, which never read captures, set this
	// to shed per-frame recording cost. The Net's capture fields remain
	// non-nil but stay empty.
	DisableCaptures bool
}

// Net is a wired-up scenario.
type Net struct {
	Loop *sim.Loop
	IDs  *netem.FrameIDs

	// Ground-truth captures, in the direction of travel:
	// HostIngress sees forward-path packets as the server receives them;
	// HostEgress sees reverse-path packets as the server sends them;
	// ProbeIngress sees reverse-path packets as the probe receives them;
	// ProbeEgress sees forward-path packets as the probe sends them.
	ProbeEgress, HostIngress, HostEgress, ProbeIngress *trace.Capture

	// Hosts are the servers behind the published address. In a topology
	// graph they are followed by the graph's cross-traffic hosts, in spec
	// order.
	Hosts []*host.Host

	// LB is the load balancer, if the scenario has one.
	LB *netem.LoadBalancer

	// Routers and Senders are the topology graph's forwarding nodes and
	// cross-traffic sources, in spec order; empty for point-to-point
	// scenarios.
	Routers []*netem.Router
	Senders []*tcpsender.Sender

	probe      *Probe
	endpoint   netem.Node // event-driven replacement for the probe inbox
	probeAddr  netip.Addr
	serverAddr netip.Addr

	// arena supplies the frames and wire bytes of everything transmitted
	// in this scenario; Reset rewinds it, which is what makes a reused Net
	// allocation-free at steady state.
	arena *netem.Arena

	// pool retains the topology object graph across Resets: network
	// elements (with their random streams), hosts (with their TCP stacks
	// and connection pools) and the capture taps. build draws from it, so
	// a reused Net rebuilds an arbitrary topology with almost no
	// allocation — the elements are reinitialized, not reconstructed.
	pool topoPool

	// buildRng is the construction stream, reseeded per build.
	buildRng *sim.Rand

	// probeSink is the reverse path's terminal node, built once.
	probeSink netem.Node

	// dirs records each direction's retargetable elements (access link,
	// loss, corrupter, swapper, middlebox) as the current build wires them,
	// for scenario-timeline resolution. Cleared per build.
	dirs [2]dirElems

	// applyFn is the schedule's cached step callback; scnLive reports
	// whether the current build armed a timeline.
	applyFn func(any)
	scnLive bool
}

// elemRng pairs a pooled element with the random stream it was built on;
// reuse reseeds the stream in place (sim.Rand.ForkInto) so a rebuilt
// element draws exactly what a fresh fork would.
type elemRng[E any] struct {
	el  E
	rng *sim.Rand
}

// pool retains one type of topology object across Resets. Every getter has
// one shape: take a free entry (the zero E when there is none), fork its
// stream — ForkInto reseeds a retained stream and forks a missing one, one
// draw from the parent either way — then Reinit the element or construct
// it, and keep it on the in-use list for the next recycle.
type pool[E any] struct{ free, used []E }

func (p *pool[E]) take() (e E, ok bool) {
	if k := len(p.free); k > 0 {
		e, p.free = p.free[k-1], p.free[:k-1]
		return e, true
	}
	return e, false
}

func (p *pool[E]) keep(e E) E {
	p.used = append(p.used, e)
	return e
}

// recycle frees the in-use entries last-taken first, so the next build
// takes them in the order this one did: rebuilding the same shape gives
// every element the role it had, and whatever storage it grew for it.
func (p *pool[E]) recycle() {
	for i := len(p.used) - 1; i >= 0; i-- {
		p.free = append(p.free, p.used[i])
	}
	p.used = p.used[:0]
}

// topoPool holds the topology objects by type. Reset recycles every pool
// before rebuilding.
type topoPool struct {
	links       pool[*netem.Link]
	delays      pool[elemRng[*netem.Delay]]
	losses      pool[elemRng[*netem.Loss]]
	swappers    pool[elemRng[*netem.Swapper]]
	corrupters  pool[elemRng[*netem.Corrupter]]
	trunks      pool[elemRng[*netem.StripedTrunk]]
	multiPaths  pool[elemRng[*netem.MultiPath]]
	arqs        pool[elemRng[*netem.ARQLink]]
	priorities  pool[*netem.PriorityQueue]
	fragmenters pool[*netem.Fragmenter]
	routers     pool[*netem.Router]
	senders     pool[senderEntry]
	middleboxes pool[elemRng[*netem.Middlebox]]

	// schedule and scnSteps persist the scenario timeline machinery; one
	// schedule per net, reinitialized per scenario-bearing build.
	schedule *netem.Schedule
	scnSteps []resolvedStep

	// graph holds the topology builder's reusable scratch (next-hop
	// tables, BFS queues), so rebuilding a routed graph per Reset stays
	// cheap.
	graph graphScratch

	// hosts are pooled by profile name so a reused host's stack shape
	// matches the profile it is reset to (several identically named
	// backends pool as distinct instances). Each host keeps the build
	// stream it was constructed from, reseeded on reuse.
	freeHosts map[string][]elemRng[*host.Host]
	usedHosts []elemRng[*host.Host]

	// lb and lbBackends persist the load balancer and its backend slice.
	lb         *netem.LoadBalancer
	lbBackends []netem.Node

	// pathRngs are the two per-direction construction streams (forward,
	// reverse), reseeded per build.
	pathRngs [2]*sim.Rand

	// taps caches the four capture pass-throughs, keyed by capture.
	taps map[*trace.Capture]*netem.Tap
}

// recycle moves every in-use element to its free list.
func (p *topoPool) recycle() {
	p.links.recycle()
	p.delays.recycle()
	p.losses.recycle()
	p.swappers.recycle()
	p.corrupters.recycle()
	p.trunks.recycle()
	p.multiPaths.recycle()
	p.arqs.recycle()
	p.priorities.recycle()
	p.fragmenters.recycle()
	p.routers.recycle()
	p.senders.recycle()
	p.middleboxes.recycle()
	if len(p.usedHosts) > 0 && p.freeHosts == nil {
		p.freeHosts = make(map[string][]elemRng[*host.Host])
	}
	for i := len(p.usedHosts) - 1; i >= 0; i-- { // last-taken first, as pool.recycle
		h := p.usedHosts[i]
		p.freeHosts[h.el.Profile()] = append(p.freeHosts[h.el.Profile()], h)
	}
	p.usedHosts = p.usedHosts[:0]
}

// Default addressing: one probe, one published server address.
var (
	DefaultProbeAddr  = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	DefaultServerAddr = netip.AddrFrom4([4]byte{10, 0, 1, 1})
)

// New builds the scenario.
func New(cfg Config) *Net {
	n := &Net{
		Loop:         sim.NewLoop(),
		IDs:          &netem.FrameIDs{},
		ProbeEgress:  trace.NewCapture("probe-egress"),
		HostIngress:  trace.NewCapture("host-ingress"),
		HostEgress:   trace.NewCapture("host-egress"),
		ProbeIngress: trace.NewCapture("probe-ingress"),
		probeAddr:    DefaultProbeAddr,
		serverAddr:   DefaultServerAddr,
		arena:        &netem.Arena{},
	}
	n.probe = &Probe{net: n, addr: n.probeAddr}
	n.build(cfg)
	return n
}

// Reset rewinds the scenario containers — event loop, frame arena, frame
// IDs, captures, probe inbox — and rebuilds the topology for cfg, exactly
// as New would. A reset Net is observably identical to a fresh New(cfg):
// construction consumes the seed's random streams in the same order, the
// clock restarts at zero and frame IDs restart at one. The topology object
// graph — network elements, hosts with their TCP stacks, capture taps —
// is pooled across Resets and reinitialized rather than rebuilt, so
// campaign workers reusing one Net across thousands of targets pay almost
// no allocation for per-target scenario construction.
func (n *Net) Reset(cfg Config) {
	n.Loop.Reset()
	n.arena.Reset()
	*n.IDs = netem.FrameIDs{}
	n.ProbeEgress.Reset()
	n.HostIngress.Reset()
	n.HostEgress.Reset()
	n.ProbeIngress.Reset()
	n.Hosts = n.Hosts[:0]
	n.LB = nil
	n.Routers = n.Routers[:0]
	n.Senders = n.Senders[:0]
	n.endpoint = nil
	n.probe.reset()
	n.pool.recycle()
	n.build(cfg)
}

// build wires the topology for cfg onto the (fresh or reset) containers.
// The order of random-stream forks here is part of the hermeticity
// contract: Reset must consume cfg.Seed's streams exactly as New does —
// pooled elements reseed the same streams a fresh construction would fork
// (sim.Rand.ForkInto draws from the parent exactly as Fork does).
func (n *Net) build(cfg Config) {
	if n.buildRng == nil {
		n.buildRng = sim.NewRand(cfg.Seed, 0x5eed)
	} else {
		n.buildRng.Reseed(cfg.Seed, 0x5eed)
	}
	rng := n.buildRng

	// tap wires a capture point, or passes through untapped when captures
	// are disabled.
	tap := func(c *trace.Capture, next netem.Node) netem.Node {
		if cfg.DisableCaptures {
			return next
		}
		return n.getTap(c, next)
	}

	if n.probeSink == nil {
		n.probeSink = netem.NodeFunc(func(f *netem.Frame) { n.probe.deliver(f) })
	}

	n.dirs = [2]dirElems{}

	// Routed graphs take the topology builder; everything else — including
	// an explicit empty TopologySpec, the degenerate two-node case — is the
	// classic point-to-point pipe. Both wire any scenario middleboxes at
	// the probe-access path entries and finish by arming the scenario
	// timeline (a no-op without one).
	if cfg.Topology.isGraph() {
		n.buildGraph(cfg, rng, tap)
		n.startTimeline(cfg)
		return
	}

	// Reverse direction: host egress tap -> [middlebox] -> reverse path ->
	// probe ingress tap -> probe inbox.
	hostOut := tap(n.HostEgress, n.probeAccess(cfg, rng, DirReverse, tap(n.ProbeIngress, n.probeSink)))

	serverSide := n.buildServers(cfg, rng, hostOut)

	// Forward direction: probe egress tap -> [middlebox] -> forward path ->
	// host ingress tap -> server side.
	n.probe.egress = tap(n.ProbeEgress, n.probeAccess(cfg, rng, DirForward, tap(n.HostIngress, serverSide)))
	n.startTimeline(cfg)
}

// probeAccess wires the probe's access path in direction d — the scenario's
// impairments for d, ending at end, behind its middlebox for d when it has
// one — and returns the node the path starts at. Forward takes path stream
// 0 (fork label 1) and middlebox label 8, reverse stream 1 (label 2) and
// label 9; the point-to-point and graph builders both wire their probe
// access through here, so they consume the build stream identically.
func (n *Net) probeAccess(cfg Config, rng *sim.Rand, d Dir, end netem.Node) netem.Node {
	spec := cfg.Forward
	if d == DirReverse {
		spec = cfg.Reverse
	}
	entry := n.buildPath(n.pathRng(int(d), uint64(d)+1, rng), spec.defaults(), end, &n.dirs[d], cfg.Scenario.needs(d))
	if mc := cfg.Scenario.middlebox(d); mc != nil {
		mb := n.getMiddlebox(*mc, rng, 8+uint64(d), entry)
		n.dirs[d].mb = mb
		entry = mb
	}
	return entry
}

// buildServers constructs the published-address endpoint — one host, or a
// load balancer fronting the backend pool — transmitting into hostOut, and
// returns the node forward-path traffic terminates at. Shared verbatim by
// the point-to-point and graph builders so both consume the build stream
// identically.
func (n *Net) buildServers(cfg Config, rng *sim.Rand, hostOut netem.Node) netem.Node {
	if len(cfg.Backends) > 0 {
		backends := n.pool.lbBackends[:0]
		for i, p := range cfg.Backends {
			h := n.getHost(p, n.serverAddr, rng, uint64(100+i), hostOut)
			n.Hosts = append(n.Hosts, h)
			backends = append(backends, h)
		}
		n.pool.lbBackends = backends
		// The balancer hashes the four-tuple: the stateless strategy the
		// paper describes.
		const lbMode = netem.HashFourTuple
		if n.pool.lb == nil {
			n.pool.lb = netem.NewLoadBalancer(lbMode, backends...)
		} else {
			n.pool.lb.Reinit(lbMode, backends)
		}
		n.LB = n.pool.lb
		return n.LB
	}
	h := n.getHost(cfg.Server, n.serverAddr, rng, 100, hostOut)
	n.Hosts = append(n.Hosts, h)
	return h
}

// pathRng returns the per-direction construction stream idx, forked from
// rng with the given label — reseeding the retained stream object when one
// exists.
func (n *Net) pathRng(idx int, label uint64, rng *sim.Rand) *sim.Rand {
	n.pool.pathRngs[idx] = rng.ForkInto(n.pool.pathRngs[idx], label)
	return n.pool.pathRngs[idx]
}

// getTap returns the pooled capture tap for c rewired to next, creating it
// on first use.
func (n *Net) getTap(c *trace.Capture, next netem.Node) netem.Node {
	if t := n.pool.taps[c]; t != nil {
		t.SetNext(next)
		return t
	}
	if n.pool.taps == nil {
		n.pool.taps = make(map[*trace.Capture]*netem.Tap, 4)
	}
	t := c.Tap(n.Loop, next)
	n.pool.taps[c] = t
	return t
}

// getHost returns a host for profile p at addr transmitting to out — a
// pooled one of the same profile name rebound in place when available, else
// a fresh build. Either way it consumes one draw of rng (the host's build
// fork).
func (n *Net) getHost(p host.Profile, addr netip.Addr, rng *sim.Rand, label uint64, out netem.Node) *host.Host {
	var hr elemRng[*host.Host]
	if free := n.pool.freeHosts[p.Name]; len(free) > 0 {
		hr = free[len(free)-1]
		n.pool.freeHosts[p.Name] = free[:len(free)-1]
	}
	hr.rng = rng.ForkInto(hr.rng, label)
	if hr.el != nil {
		hr.el.ResetAt(p, addr, hr.rng, out)
	} else {
		hr.el = host.New(n.Loop, p, addr, hr.rng, n.IDs, out)
	}
	hr.el.SetArena(n.arena)
	n.pool.usedHosts = append(n.pool.usedHosts, hr)
	return hr.el
}

// buildPath composes a direction's elements ending at dst and returns the
// entry node, drawing every element from the topology pool. Element order:
// access link (serialization + propagation), jitter, loss, swapper,
// striped trunk. The direction's retargetable elements are recorded in d
// for scenario-timeline resolution, and need forces loss/corrupter/swapper
// construction at probability zero (rng-inert at runtime) so a timeline
// has an element to retarget mid-flow.
func (n *Net) buildPath(rng *sim.Rand, spec PathSpec, dst netem.Node, d *dirElems, need pathNeeds) netem.Node {
	node := dst
	if spec.Trunk != nil {
		node = n.getTrunk(*spec.Trunk, rng, 4, node)
	}
	if spec.MultiPath != nil {
		node = n.getMultiPath(*spec.MultiPath, rng, 6, node)
	}
	if spec.ARQ != nil {
		node = n.getARQ(*spec.ARQ, rng, 5, node)
	}
	if spec.Priority != nil {
		node = n.getPriority(*spec.Priority, node)
	}
	if spec.SwapProbFn != nil {
		d.swapper = n.getSwapper(spec.SwapProbFn, 0, rng, 3, node)
		node = d.swapper
	} else if spec.SwapProb > 0 || need.swap {
		d.swapper = n.getSwapper(nil, spec.SwapProb, rng, 3, node)
		node = d.swapper
	}
	if spec.Corrupt > 0 || need.corrupt {
		d.corrupter = n.getCorrupter(spec.Corrupt, rng, 7, node)
		node = d.corrupter
	}
	if spec.Loss > 0 || need.loss {
		d.loss = n.getLoss(spec.Loss, rng, 2, node)
		node = d.loss
	}
	if spec.Jitter > 0 {
		node = n.getDelay(0, spec.Jitter, rng, 1, node)
	}
	if spec.MTU > 0 {
		node = n.getFragmenter(spec.MTU, node)
	}
	d.link = n.getLink(netem.LinkConfig{RateBps: spec.LinkRate, PropDelay: pathDelay}, node)
	return d.link
}

func (n *Net) getLink(cfg netem.LinkConfig, next netem.Node) *netem.Link {
	l, ok := n.pool.links.take()
	if ok {
		l.Reinit(cfg, next)
	} else {
		l = netem.NewLink(n.Loop, cfg, next)
	}
	return n.pool.links.keep(l)
}

func (n *Net) getDelay(base, jitter time.Duration, rng *sim.Rand, label uint64, next netem.Node) *netem.Delay {
	e, ok := n.pool.delays.take()
	e.rng = rng.ForkInto(e.rng, label)
	if ok {
		e.el.Reinit(base, jitter, e.rng, next)
	} else {
		e.el = netem.NewDelay(n.Loop, base, jitter, e.rng, next)
	}
	return n.pool.delays.keep(e).el
}

func (n *Net) getLoss(prob float64, rng *sim.Rand, label uint64, next netem.Node) *netem.Loss {
	e, ok := n.pool.losses.take()
	e.rng = rng.ForkInto(e.rng, label)
	if ok {
		e.el.Reinit(prob, e.rng, next)
	} else {
		e.el = netem.NewLoss(prob, e.rng, next)
	}
	return n.pool.losses.keep(e).el
}

func (n *Net) getSwapper(probFn func(sim.Time) float64, prob float64, rng *sim.Rand, label uint64, next netem.Node) *netem.Swapper {
	e, ok := n.pool.swappers.take()
	e.rng = rng.ForkInto(e.rng, label)
	switch {
	case ok:
		e.el.Reinit(probFn, prob, e.rng, next)
	case probFn != nil:
		e.el = netem.NewSwapperFunc(n.Loop, probFn, e.rng, next)
	default:
		e.el = netem.NewSwapper(n.Loop, prob, e.rng, next)
	}
	return n.pool.swappers.keep(e).el
}

func (n *Net) getCorrupter(prob float64, rng *sim.Rand, label uint64, next netem.Node) *netem.Corrupter {
	e, ok := n.pool.corrupters.take()
	e.rng = rng.ForkInto(e.rng, label)
	if ok {
		e.el.Reinit(prob, e.rng, n.arena, next)
	} else {
		e.el = netem.NewCorrupter(prob, e.rng, n.arena, next)
	}
	return n.pool.corrupters.keep(e).el
}

func (n *Net) getTrunk(cfg netem.TrunkConfig, rng *sim.Rand, label uint64, next netem.Node) *netem.StripedTrunk {
	e, ok := n.pool.trunks.take()
	e.rng = rng.ForkInto(e.rng, label)
	if ok {
		e.el.Reinit(cfg, e.rng, next)
	} else {
		e.el = netem.NewStripedTrunk(n.Loop, cfg, e.rng, next)
	}
	return n.pool.trunks.keep(e).el
}

func (n *Net) getMultiPath(cfg netem.MultiPathConfig, rng *sim.Rand, label uint64, next netem.Node) *netem.MultiPath {
	e, ok := n.pool.multiPaths.take()
	e.rng = rng.ForkInto(e.rng, label)
	if ok {
		e.el.Reinit(cfg, e.rng, next)
	} else {
		e.el = netem.NewMultiPath(n.Loop, cfg, e.rng, next)
	}
	return n.pool.multiPaths.keep(e).el
}

func (n *Net) getARQ(cfg netem.ARQConfig, rng *sim.Rand, label uint64, next netem.Node) *netem.ARQLink {
	e, ok := n.pool.arqs.take()
	e.rng = rng.ForkInto(e.rng, label)
	if ok {
		e.el.Reinit(cfg, e.rng, next)
	} else {
		e.el = netem.NewARQLink(n.Loop, cfg, e.rng, next)
	}
	return n.pool.arqs.keep(e).el
}

func (n *Net) getMiddlebox(cfg netem.MiddleboxConfig, rng *sim.Rand, label uint64, next netem.Node) *netem.Middlebox {
	e, ok := n.pool.middleboxes.take()
	e.rng = rng.ForkInto(e.rng, label)
	if ok {
		e.el.Reinit(cfg, n.Loop, e.rng, n.arena, n.IDs, next)
	} else {
		e.el = netem.NewMiddlebox(cfg, n.Loop, e.rng, n.arena, n.IDs, next)
	}
	return n.pool.middleboxes.keep(e).el
}

func (n *Net) getPriority(cfg netem.PriorityConfig, next netem.Node) *netem.PriorityQueue {
	q, ok := n.pool.priorities.take()
	if ok {
		q.Reinit(cfg, next)
	} else {
		q = netem.NewPriorityQueue(n.Loop, cfg, next)
	}
	return n.pool.priorities.keep(q)
}

func (n *Net) getFragmenter(mtu int, next netem.Node) *netem.Fragmenter {
	f, ok := n.pool.fragmenters.take()
	if ok {
		f.Reinit(mtu, next)
	} else {
		f = netem.NewFragmenter(mtu, next)
	}
	return n.pool.fragmenters.keep(f)
}

// Probe returns the probe-side transport.
func (n *Net) Probe() *Probe { return n.probe }

// AttachEndpoint replaces the probe-side transport with an event-driven
// endpoint (e.g. a TCP sender under test): frames arriving on the reverse
// path are delivered to ingress instead of the probe inbox, and the
// returned node is the forward-path entry the endpoint transmits into.
// The probe transport must not be used afterwards.
func (n *Net) AttachEndpoint(ingress netem.Node) netem.Node {
	n.endpoint = ingress
	return n.probe.egress
}

// ProbeAddr returns the probe host's address.
func (n *Net) ProbeAddr() netip.Addr { return n.probeAddr }

// ServerAddr returns the published server address.
func (n *Net) ServerAddr() netip.Addr { return n.serverAddr }

// ResetCaptures clears all four ground-truth captures.
func (n *Net) ResetCaptures() {
	n.ProbeEgress.Reset()
	n.HostIngress.Reset()
	n.HostEgress.Reset()
	n.ProbeIngress.Reset()
}
