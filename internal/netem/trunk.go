package netem

import (
	"time"

	"reorder/internal/sim"
)

// TrunkConfig describes a striped trunk: N parallel L2 links over which a
// router sprays packets per-packet round-robin (§IV-C). Each member link
// carries background traffic, modeled as a random queue backlog sampled per
// packet; a packet assigned to a deeper queue than its predecessor can leave
// later than a younger packet on a shallower queue, producing exactly the
// gap-dependent reordering of Fig 7: since queues drain at a constant rate,
// a pair separated by gap g is only exchanged when the backlog imbalance
// exceeds g's worth of drain time.
type TrunkConfig struct {
	// FanOut is the number of parallel member links (default 2).
	FanOut int
	// RateBps is each member link's line rate in bits per second
	// (default 622 Mbps, an OC-12, a plausible 2002 exchange-point trunk).
	RateBps int64
	// BurstProb is the probability that a packet finds a background burst
	// queued ahead of it on its member link.
	BurstProb float64
	// MeanBurstBytes is the mean backlog (exponentially distributed) when a
	// burst is present.
	MeanBurstBytes float64
}

func (c *TrunkConfig) setDefaults() {
	if c.FanOut <= 0 {
		c.FanOut = 2
	}
	if c.RateBps <= 0 {
		c.RateBps = 622_000_000
	}
}

// StripedTrunk models the striped parallel links. Packets are assigned
// round-robin; each member link is FIFO (a younger packet can never overtake
// an older one on the same member), so all reordering comes from cross-
// member queue imbalance.
type StripedTrunk struct {
	cfg   TrunkConfig
	loop  *sim.Loop
	next  Node
	rng   *sim.Rand
	stats Counters

	nextMember int
	// lastDeparture enforces per-member FIFO.
	lastDeparture []sim.Time
	// lastArrival tracks downstream arrival order to count exchanges.
	lastArrivalTime sim.Time
	deliverFn       func(any)
}

// NewStripedTrunk returns a striped trunk feeding next.
func NewStripedTrunk(loop *sim.Loop, cfg TrunkConfig, rng *sim.Rand, next Node) *StripedTrunk {
	t := &StripedTrunk{loop: loop}
	t.deliverFn = func(arg any) {
		t.stats.Out++
		t.next.Input(arg.(*Frame))
	}
	t.Reinit(cfg, rng, next)
	return t
}

// Reinit configures the trunk and empties it, keeping its loop, cached
// callback and (capacity permitting) per-member state slice;
// NewStripedTrunk ends by calling it.
func (t *StripedTrunk) Reinit(cfg TrunkConfig, rng *sim.Rand, next Node) {
	cfg.setDefaults()
	t.cfg, t.rng, t.next = cfg, rng, next
	t.stats = Counters{}
	t.nextMember = 0
	t.lastArrivalTime = 0
	t.lastDeparture = resetTimes(t.lastDeparture, cfg.FanOut)
}

// resetTimes returns a zeroed sim.Time slice of length n, reusing s's
// storage when it is large enough.
func resetTimes(s []sim.Time, n int) []sim.Time {
	if cap(s) < n {
		return make([]sim.Time, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// Stats returns a snapshot of the trunk's counters. Swapped counts frames
// that arrived downstream earlier than a frame injected before them.
func (t *StripedTrunk) Stats() Counters { return t.stats }

// txTime returns the serialization delay of n bytes on one member link.
func (t *StripedTrunk) txTime(n int) time.Duration {
	return time.Duration(int64(n) * 8 * int64(time.Second) / t.cfg.RateBps)
}

// backlogDelay samples the drain time of the background backlog a packet
// finds ahead of it on its member link.
func (t *StripedTrunk) backlogDelay() time.Duration {
	if !t.rng.Bool(t.cfg.BurstProb) {
		return 0
	}
	bytes := t.rng.ExpFloat64() * t.cfg.MeanBurstBytes
	return time.Duration(bytes * 8 * float64(time.Second) / float64(t.cfg.RateBps))
}

// Input implements Node.
func (t *StripedTrunk) Input(f *Frame) {
	t.stats.In++
	m := t.nextMember
	t.nextMember = (t.nextMember + 1) % t.cfg.FanOut

	now := t.loop.Now()
	// The packet waits behind the sampled background backlog, then
	// serializes; per-member FIFO means it also cannot depart before the
	// member's previous packet finished.
	start := now.Add(t.backlogDelay())
	if t.lastDeparture[m] > start {
		start = t.lastDeparture[m]
	}
	// The members are short: a frame arrives downstream as it departs.
	arrival := start.Add(t.txTime(f.Len()))
	t.lastDeparture[m] = arrival
	t.loop.AtArg(arrival, t.deliverFn, f)
	// Exchange accounting: this frame will arrive before some earlier frame
	// iff its arrival precedes the latest arrival already scheduled.
	if arrival < t.lastArrivalTime {
		t.stats.Swapped++
	} else {
		t.lastArrivalTime = arrival
	}
}
