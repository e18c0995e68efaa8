package campaign

import (
	"fmt"
	"time"

	"reorder/internal/host"
	"reorder/internal/sim"
	"reorder/internal/simnet"
)

// Topology is a named, seedable routed-graph scenario shape. Like
// Impairment, Build is a pure function of the passed stream: flow start
// times and transfer sizes vary per target seed, the graph shape does not.
type Topology struct {
	// Name identifies the topology in target specs; "" is the classic
	// point-to-point path.
	Name string
	// Build derives the graph from a per-target stream. A nil return means
	// point-to-point.
	Build func(rng *sim.Rand) *simnet.TopologySpec

	// shape is the graph itself, shared by every spec built from it and
	// never written: routers, links and cross hosts are fixed, and its
	// Flows name only each background flow's endpoints. Nil is
	// point-to-point.
	shape *simnet.TopologySpec
}

// buildInto is Build into caller-owned storage: dst takes the shape (its
// routers, links and cross hosts alias the registry's) and dst.Flows is
// reused for the per-target flows, whose start (0–20ms) and size
// (256–512 KiB) are drawn flow by flow, size first, so replicas sample
// different contention phases against the probe. The spec is valid until
// dst's next build.
func (tp Topology) buildInto(dst *simnet.TopologySpec, rng *sim.Rand) *simnet.TopologySpec {
	if tp.shape == nil {
		return nil
	}
	flows := append(dst.Flows[:0], tp.shape.Flows...)
	*dst = *tp.shape
	for i := range flows {
		flows[i].Bytes = 256<<10 + rng.IntN(256<<10)
		flows[i].Start = time.Duration(rng.IntN(20_000)) * time.Microsecond
	}
	dst.Flows = flows
	return dst
}

// crossHostNames are the cross-traffic sinks' names, by position.
var crossHostNames = [...]string{"x0", "x1", "x2"}

// crossFlows lists n background flows from router into cross hosts
// "x0", "x1"….
func crossFlows(router string, n int) []simnet.FlowSpec {
	flows := make([]simnet.FlowSpec, n)
	for i := range flows {
		flows[i] = simnet.FlowSpec{Router: router, To: crossHostNames[i]}
	}
	return flows
}

func crossHosts(router string, n int) []simnet.CrossHostSpec {
	hosts := make([]simnet.CrossHostSpec, n)
	for i := range hosts {
		hosts[i] = simnet.CrossHostSpec{Name: crossHostNames[i], Router: router, Profile: host.Linux24()}
	}
	return hosts
}

// Topologies returns the registry of named routed-graph shapes a campaign
// can enumerate alongside profiles and impairments.
//
//   - "p2p" (and "") is the degenerate two-node path.
//   - "bottleneck" shares one queue-limited 8 Mbps link between the probe
//     and two background flows: emergent queueing delay and droptail loss.
//   - "parallel-x2" bonds two equal-cost 6 Mbps links with per-packet
//     round-robin spray; cross traffic loads the two queues unevenly, so
//     back-to-back probe packets overtake — congestion-induced reordering
//     with zero mechanism-injected impairment.
//   - "diamond" joins one router pair by two disjoint paths of very
//     different delay, no cross traffic: inert under static routing (BFS
//     pins the first spec bundle, the 8ms path), and the substrate the
//     "route-flap" scenario flaps mid-flow — packets in flight on the slow
//     path are overtaken on the fast one.
//   - "multihop" chains both: a bottleneck hop feeding a parallel bundle,
//     with flows crossing each hop.
func Topologies() []Topology {
	tps := []Topology{
		{Name: "p2p"},
		{Name: "bottleneck", shape: &simnet.TopologySpec{
			Routers:    []simnet.RouterSpec{{Name: "r0"}, {Name: "r1"}},
			Links:      []simnet.LinkSpec{{A: "r0", B: "r1", RateBps: 8_000_000, QueueLimit: 32}},
			CrossHosts: crossHosts("r1", 2),
			Flows:      crossFlows("r0", 2),
		}},
		{Name: "parallel-x2", shape: &simnet.TopologySpec{
			Routers:    []simnet.RouterSpec{{Name: "r0"}, {Name: "r1"}},
			Links:      []simnet.LinkSpec{{A: "r0", B: "r1", Parallel: 2, RateBps: 6_000_000, QueueLimit: 32}},
			CrossHosts: crossHosts("r1", 2),
			Flows:      crossFlows("r0", 2),
		}},
		{Name: "diamond", shape: &simnet.TopologySpec{
			Routers: []simnet.RouterSpec{{Name: "r0"}, {Name: "r1"}},
			Links: []simnet.LinkSpec{
				{A: "r0", B: "r1", RateBps: 20_000_000, Delay: 8 * time.Millisecond, QueueLimit: 64},
				{A: "r0", B: "r1", RateBps: 20_000_000, Delay: time.Millisecond, QueueLimit: 64},
			},
		}},
		{Name: "multihop", shape: &simnet.TopologySpec{
			Routers: []simnet.RouterSpec{{Name: "r0"}, {Name: "r1"}, {Name: "r2"}},
			Links: []simnet.LinkSpec{
				{A: "r0", B: "r1", RateBps: 10_000_000, QueueLimit: 48},
				{A: "r1", B: "r2", Parallel: 2, RateBps: 6_000_000, QueueLimit: 32},
			},
			CrossHosts: crossHosts("r2", 3),
			Flows:      append(crossFlows("r0", 2), simnet.FlowSpec{Router: "r1", To: "x2"}),
		}},
	}
	for i := range tps {
		tp := tps[i]
		tps[i].Build = func(rng *sim.Rand) *simnet.TopologySpec {
			return tp.buildInto(new(simnet.TopologySpec), rng)
		}
	}
	return tps
}

// topologies caches the registry; shapes are read-only.
var topologies = Topologies()

// TopologyNames returns the registry names in registry order.
func TopologyNames() []string {
	var names []string
	for _, tp := range topologies {
		names = append(names, tp.Name)
	}
	return names
}

// topologyByName resolves a topology name; "" is the point-to-point path.
func topologyByName(name string) (Topology, error) {
	if name == "" {
		return Topology{}, nil
	}
	for _, tp := range topologies {
		if tp.Name == name {
			return tp, nil
		}
	}
	return Topology{}, fmt.Errorf("campaign: unknown topology %q", name)
}
