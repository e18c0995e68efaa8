// Package ipid implements the IP identification-field generation policies
// observed in deployed stacks circa the paper, plus the monotonicity
// statistic the dual connection test uses to decide whether a host's IPID
// stream can disambiguate packet order.
//
// The paper leans on the traditional implementation — a single global
// counter incremented per transmitted packet — and documents the deviations
// that break the technique: Linux 2.4's constant zero on DF packets,
// OpenBSD's pseudorandom IDs, FreeBSD's optional randomization, and
// Solaris's per-destination counters (which are harmless, per the paper's
// footnote, because the technique never compares IPIDs across destinations).
package ipid

import (
	"net/netip"

	"reorder/internal/sim"
)

// Generator produces the IPID for each packet a host transmits.
type Generator interface {
	// Next returns the IPID for a packet destined to dst.
	Next(dst netip.Addr) uint16
	// Name identifies the policy in reports and host profiles.
	Name() string
}

// Store is the storage a host keeps for its IPID policy: one generator of
// each stateful kind, so a host reset to a profile re-initializes its
// generator (Reset) instead of constructing one. A generator returned out
// of a Store is valid until the store's next Reset of that kind.
type Store struct {
	Global  GlobalCounter
	PerDest PerDestination
	Random  Random
	Small   SmallRandomIncrement
}

// GlobalCounter is the traditional policy: one counter shared by all
// destinations, incremented per packet. This is the behaviour the dual
// connection test depends on.
type GlobalCounter struct {
	next uint16
}

// NewGlobalCounter returns a counter starting at start.
func NewGlobalCounter(start uint16) *GlobalCounter { return new(GlobalCounter).Reset(start) }

// Reset restarts g at start — the state NewGlobalCounter returns — and
// returns g.
func (g *GlobalCounter) Reset(start uint16) *GlobalCounter {
	g.next = start
	return g
}

// Next implements Generator.
func (g *GlobalCounter) Next(netip.Addr) uint16 {
	id := g.next
	g.next++
	return id
}

// Name implements Generator.
func (g *GlobalCounter) Name() string { return "global-counter" }

// PerDestination keeps an independent counter per destination address, as
// modern Solaris does. Monotonic from any single observer's point of view,
// so the dual connection test still works.
type PerDestination struct {
	counters map[netip.Addr]uint16
	seed     uint16
}

// NewPerDestination returns a per-destination counter policy. Each new
// destination's counter starts at seed.
func NewPerDestination(seed uint16) *PerDestination { return new(PerDestination).Reset(seed) }

// Reset forgets every destination, keeping the table's storage, and starts
// new counters at seed — the state NewPerDestination returns — and returns
// p.
func (p *PerDestination) Reset(seed uint16) *PerDestination {
	if p.counters == nil {
		p.counters = make(map[netip.Addr]uint16)
	}
	clear(p.counters)
	p.seed = seed
	return p
}

// Next implements Generator.
func (p *PerDestination) Next(dst netip.Addr) uint16 {
	id, ok := p.counters[dst]
	if !ok {
		id = p.seed
	}
	p.counters[dst] = id + 1
	return id
}

// Name implements Generator.
func (p *PerDestination) Name() string { return "per-destination" }

// Random draws each IPID uniformly, as OpenBSD does for security. Defeats
// the dual connection test; the prevalidation pass must reject such hosts.
type Random struct {
	rng *sim.Rand
}

// NewRandom returns a pseudorandom IPID policy using the given stream.
func NewRandom(rng *sim.Rand) *Random { return new(Random).Reset(rng) }

// Reset points r at rng — the state NewRandom returns — and returns r.
func (r *Random) Reset(rng *sim.Rand) *Random {
	r.rng = rng
	return r
}

// Next implements Generator.
func (r *Random) Next(netip.Addr) uint16 { return r.rng.Uint16() }

// Name implements Generator.
func (r *Random) Name() string { return "random" }

// Zero emits a constant zero, as Linux 2.4 does for DF-marked packets under
// path MTU discovery. The prevalidation pass rejects such hosts (the paper
// found 9 of its 50 survey hosts in this class).
type Zero struct{}

// Next implements Generator.
func (Zero) Next(netip.Addr) uint16 { return 0 }

// Name implements Generator.
func (Zero) Name() string { return "zero" }

// SmallRandomIncrement advances a global counter by a small random step per
// packet (a hardening scheme mentioned in the paper). Still monotonic over
// short windows, but the per-packet distance no longer encodes exact send
// order when other traffic intervenes.
type SmallRandomIncrement struct {
	next uint16
	max  int
	rng  *sim.Rand
}

// NewSmallRandomIncrement returns a policy stepping by 1..max per packet.
func NewSmallRandomIncrement(start uint16, max int, rng *sim.Rand) *SmallRandomIncrement {
	return new(SmallRandomIncrement).Reset(start, max, rng)
}

// Reset restarts s at start, stepping by 1..max draws of rng — the state
// NewSmallRandomIncrement returns — and returns s.
func (s *SmallRandomIncrement) Reset(start uint16, max int, rng *sim.Rand) *SmallRandomIncrement {
	if max < 1 {
		max = 1
	}
	*s = SmallRandomIncrement{next: start, max: max, rng: rng}
	return s
}

// Next implements Generator.
func (s *SmallRandomIncrement) Next(netip.Addr) uint16 {
	id := s.next
	s.next += uint16(1 + s.rng.IntN(s.max))
	return id
}

// Name implements Generator.
func (s *SmallRandomIncrement) Name() string { return "small-random-increment" }
