package netem

import "net/netip"

// Router is a graph-topology forwarding node: frames are classified by
// destination address against a per-destination forwarding table and handed
// to one port of the matched route's port group. A port group models a set
// of parallel equal-cost egress interfaces (typically queue-limited Links
// sharing one far end); groups with more than one port spray frames
// per-packet round-robin across them — the load-balancing discipline that
// turns uneven queue occupancy into *emergent* reordering, exactly the
// "packet-level parallelism inside the network" cause the paper attributes
// field reordering to. The router itself schedules nothing and holds no
// queue: all queueing delay and droptail loss live in the Link elements
// behind its ports, so congestion effects are a product of traffic, not of
// a configured probability.
//
// The spray counter is shared per group across every flow routed through
// it, which is what makes two back-to-back probe packets take different
// physical links whenever any cross-traffic interleaves them.
type Router struct {
	stats  Counters
	routes []route
	// groups[g] is group g's range of the one ports slice, so a rebuilt
	// table reuses a single allocation however many groups it has.
	groups []portGroup
	ports  []Node
	rr     []uint32
}

// portGroup is ports[lo:hi].
type portGroup struct{ lo, hi int }

// route maps one destination address to a port-group index. Tables are tiny
// (one entry per endpoint), so a linear scan beats a map on the hot path.
// The scan compares key, the address as the word a frame's routing header
// carries; dst is kept for SetRoute to find the entry again.
type route struct {
	key   uint64
	group int
	dst   netip.Addr
}

// noRouteKey is the key of a route to an address that is not IPv4. Every
// frame is IPv4 and its destination word widens to less than this, so such a
// route stays in the table and never matches.
const noRouteKey = 1 << 32

func newRoute(dst netip.Addr, group int) route {
	key := uint64(noRouteKey)
	if dst.Is4() {
		key = uint64(addrWord(dst))
	}
	return route{key: key, group: group, dst: dst}
}

// NewRouter returns an empty router; frames drop until routes are added.
func NewRouter() *Router { return &Router{} }

// Reinit clears the forwarding table, port groups and counters for reuse in
// a rebuilt topology, retaining the table and group-list storage.
func (r *Router) Reinit() {
	r.stats = Counters{}
	r.routes = r.routes[:0]
	r.groups = r.groups[:0]
	r.ports = r.ports[:0]
	r.rr = r.rr[:0]
}

// AddGroup registers a port group of parallel equal-cost egress ports and
// returns its index for AddRoute. Multi-port groups forward round-robin,
// starting at the first port. The ports are copied; the caller keeps its
// slice.
func (r *Router) AddGroup(ports ...Node) int {
	if len(ports) == 0 {
		panic("netem: router port group needs at least one port")
	}
	lo := len(r.ports)
	r.ports = append(r.ports, ports...)
	r.groups = append(r.groups, portGroup{lo, len(r.ports)})
	r.rr = append(r.rr, 0)
	return len(r.groups) - 1
}

// AddRoute directs frames for dst to the port group at index group. Later
// routes for the same destination shadow earlier ones only if added first;
// callers build tables once per topology, so duplicates are a spec bug.
func (r *Router) AddRoute(dst netip.Addr, group int) {
	if group < 0 || group >= len(r.groups) {
		panic("netem: router route references unknown port group")
	}
	r.routes = append(r.routes, newRoute(dst, group))
}

// SetRoute repoints the route for dst at a different port group — a route
// flap. An existing entry is updated in place (frames already queued on the
// old group's links still drain through them, exactly like a real
// forwarding-table swap); with no existing entry the route is appended.
func (r *Router) SetRoute(dst netip.Addr, group int) {
	if group < 0 || group >= len(r.groups) {
		panic("netem: router route references unknown port group")
	}
	for i := range r.routes {
		if r.routes[i].dst == dst {
			r.routes[i].group = group
			return
		}
	}
	r.routes = append(r.routes, newRoute(dst, group))
}

// Stats returns a snapshot of the router's counters. Dropped counts frames
// with no matching route (or no classifiable destination).
func (r *Router) Stats() Counters { return r.stats }

// Input implements Node. Routing needs the destination address alone, which
// a frame with a view attached carries in its routing header (the view is
// not loaded, no wire bytes are materialized); byte-form frames fall back to
// a PeekFlow over the wire bytes.
func (r *Router) Input(f *Frame) {
	r.stats.In++
	dst, ok := f.dst4()
	if !ok {
		r.stats.Dropped++
		return
	}
	for i := range r.routes {
		if r.routes[i].key == uint64(dst) {
			g := r.routes[i].group
			ports := r.ports[r.groups[g].lo:r.groups[g].hi]
			port := ports[0]
			if len(ports) > 1 {
				port = ports[r.rr[g]%uint32(len(ports))]
				r.rr[g]++
			}
			r.stats.Out++
			port.Input(f)
			return
		}
	}
	r.stats.Dropped++ // no route to host
}
