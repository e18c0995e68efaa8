package netem

import (
	"reorder/internal/packet"
)

// BalanceMode selects how a load balancer pins flows to backends.
type BalanceMode int

const (
	// HashFourTuple hashes (src, sport, dst, dport, proto) — the common
	// stateless strategy the paper describes.
	HashFourTuple BalanceMode = iota
	// PerFlowTable establishes explicit per-flow state on the first packet
	// of a flow (typically the SYN) and routes subsequent packets by table
	// lookup, falling back to the hash for unknown flows.
	PerFlowTable
)

// LoadBalancer is a transparent per-flow balancer in front of a set of
// backends. It never reorders and never rewrites packets; its observable
// effect is that different connections to the same published address may
// terminate on different hosts, which is what invalidates the dual
// connection test's shared-IPID assumption (Fig 3) while leaving the SYN
// test sound (both SYNs share a 4-tuple, so they hit the same backend).
type LoadBalancer struct {
	mode     BalanceMode
	backends []Node
	table    map[packet.FlowKey]int
	stats    Counters
}

// NewLoadBalancer returns a balancer over the given backends.
func NewLoadBalancer(mode BalanceMode, backends ...Node) *LoadBalancer {
	lb := &LoadBalancer{table: make(map[packet.FlowKey]int)}
	lb.Reinit(mode, backends)
	return lb
}

// Reinit configures the balancer and empties its flow table, keeping the
// table's storage; NewLoadBalancer ends by calling it. The backends slice
// is retained as given (callers pooling the balancer typically reuse one
// slice).
func (lb *LoadBalancer) Reinit(mode BalanceMode, backends []Node) {
	if len(backends) == 0 {
		panic("netem: load balancer needs at least one backend")
	}
	lb.mode, lb.backends = mode, backends
	lb.stats = Counters{}
	clear(lb.table)
}

// Stats returns a snapshot of the balancer's counters.
func (lb *LoadBalancer) Stats() Counters { return lb.stats }

// Backend returns the index of the backend that frames of flow k are
// pinned to right now (for tests and diagnostics).
func (lb *LoadBalancer) Backend(k packet.FlowKey) int {
	if lb.mode == PerFlowTable {
		if i, ok := lb.table[k]; ok {
			return i
		}
	}
	return int(k.Hash() % uint64(len(lb.backends)))
}

// Input implements Node. Classification uses the frame's cached flow key
// when a view is attached, falling back to a PeekFlow over the wire bytes.
func (lb *LoadBalancer) Input(f *Frame) {
	lb.stats.In++
	k, ok := f.Flow()
	if !ok {
		lb.stats.Dropped++
		return
	}
	i := lb.Backend(k)
	if lb.mode == PerFlowTable {
		if _, seen := lb.table[k]; !seen {
			lb.table[k] = i
		}
	}
	lb.stats.Out++
	lb.backends[i].Input(f)
}
