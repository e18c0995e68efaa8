package netem

import (
	"time"

	"reorder/internal/sim"
)

// LinkConfig describes a point-to-point link.
type LinkConfig struct {
	// RateBps is the line rate in bits per second. Zero means infinitely
	// fast (no serialization delay).
	RateBps int64
	// PropDelay is the one-way propagation delay.
	PropDelay time.Duration
	// QueueLimit is the droptail queue capacity in packets, counting the
	// packet in transmission. Zero means unbounded.
	QueueLimit int
}

// Link is a FIFO store-and-forward link: frames serialize at the line rate,
// wait out the propagation delay, and arrive downstream in order. A link by
// itself never reorders.
//
// A bounded link's occupancy — frames queued or in transmission — is the
// number of accepted frames whose departure the loop has not yet passed.
// Nothing happens at a departure except that the count falls, so instead of
// scheduling an event for it the link keeps the (departure, sequence) key
// that event would have had and, on the next arrival, discards the keys
// behind the loop's execution frontier (sim.Loop.Passed). Departures are
// FIFO and the frontier never retreats, so the keys form a queue whose
// passed entries are always a prefix; what is left is the occupancy the
// event-per-departure form would read at the same point of the same run.
//
// Deliveries are FIFO too — arrival times on one link never decrease — so
// they take one heap entry per link, not one per frame in flight: the lane.
// Only the frame due next is on the loop, riding in its event's argument;
// frames accepted behind it wait in a queue with the (arrival, sequence) key
// their own delivery event would have had, and the head, as it fires,
// re-arms the next one under that key (sim.Loop.AtReserved). Each delivery
// therefore runs at the key, and so in the order against every other event,
// that scheduling it at Input would have given it.
type Link struct {
	cfg   LinkConfig
	loop  *sim.Loop
	next  Node
	stats Counters

	busyUntil sim.Time // when the transmitter frees up

	// departs holds the departure keys not yet seen to have passed; its
	// storage is kept across Reinit.
	departs sim.Queue[departKey]

	// armed is set while a delivery of this link is on the loop; followers
	// are the frames accepted since, oldest first. A link that never holds a
	// second frame in flight never touches followers. Storage is kept across
	// Reinit.
	armed     bool
	followers sim.Queue[delivery]

	// deliverFn is scheduled with the frame as argument, so per-frame
	// forwarding allocates no closures.
	deliverFn func(any)
}

// departKey is the loop key of one frame's end of transmission.
type departKey struct {
	at  sim.Time
	seq uint64
}

// delivery is a frame waiting its turn in the lane, with the loop key of its
// arrival downstream.
type delivery struct {
	f   *Frame
	at  sim.Time
	seq uint64
}

// NewLink returns a link feeding next.
func NewLink(loop *sim.Loop, cfg LinkConfig, next Node) *Link {
	l := &Link{loop: loop}
	// The head of the lane fires. The next frame is armed before this one
	// goes downstream, so that a node feeding this link again from inside
	// the delivery finds the lane in order; its key is ahead of the one
	// running because it was reserved later for an arrival no earlier.
	l.deliverFn = func(arg any) {
		if l.followers.Len() > 0 {
			d := l.followers.Front()
			l.followers.Pop()
			l.loop.AtReserved(d.at, d.seq, l.deliverFn, d.f)
		} else {
			l.armed = false
		}
		l.stats.Out++
		l.next.Input(arg.(*Frame))
	}
	l.Reinit(cfg, next)
	return l
}

// Reinit configures the link and empties it, keeping its loop, cached
// callback and queue storage; NewLink ends by calling it. A pooled link's
// loop must have been Reset if the link still had frames in flight: they
// are discarded here, as Loop.Reset discards the delivery on the loop.
func (l *Link) Reinit(cfg LinkConfig, next Node) {
	l.cfg, l.next = cfg, next
	l.stats = Counters{}
	l.busyUntil = 0
	l.departs.Reset()
	l.armed = false
	l.followers.Reset()
}

// Stats returns a snapshot of the link's counters.
func (l *Link) Stats() Counters { return l.stats }

// Rate returns the current line rate in bits per second.
func (l *Link) Rate() int64 { return l.cfg.RateBps }

// QueueLimit returns the current droptail capacity (0 = unbounded).
func (l *Link) QueueLimit() int { return l.cfg.QueueLimit }

// SetRate retargets the line rate mid-flow, the scenario-timeline hook for
// oscillating bandwidth throttles. Frames already serializing keep the
// departure time computed at their old rate (busyUntil is not rewritten);
// the new rate applies from the next arrival, like a shaper reprogrammed
// between packets. Non-positive rates mean infinitely fast, as in
// LinkConfig.
func (l *Link) SetRate(bps int64) { l.cfg.RateBps = bps }

// SetQueueLimit retargets the droptail capacity mid-flow, the hook for
// bufferbloat ramps. Occupancy is tracked only while a bound is in force
// (unbounded operation records no departures), so a bound imposed mid-flow
// counts frames arriving after the edge — the approximation errs toward
// admitting in-flight traffic, never toward spurious drops of it. Frames
// accepted under an earlier bound still count until they depart.
func (l *Link) SetQueueLimit(n int) { l.cfg.QueueLimit = n }

// TxTime returns the serialization delay of n bytes at the link rate.
func (l *Link) TxTime(n int) time.Duration {
	if l.cfg.RateBps <= 0 {
		return 0
	}
	return time.Duration(int64(n) * 8 * int64(time.Second) / l.cfg.RateBps)
}

// Input implements Node.
func (l *Link) Input(f *Frame) {
	l.stats.In++
	if l.cfg.QueueLimit > 0 && l.occupancy() >= l.cfg.QueueLimit {
		l.stats.Dropped++
		return
	}
	now := l.loop.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	departure := start.Add(l.TxTime(f.Len()))
	l.busyUntil = departure
	arrival := departure.Add(l.cfg.PropDelay)
	// Only a bounded link reads occupancy, so only it records departures.
	// The key takes the sequence number ahead of the delivery event's: a
	// departure at the very instant of a later event is then ordered
	// against it exactly as a scheduled departure event would have been.
	if l.cfg.QueueLimit > 0 {
		l.departs.Push(departKey{at: departure, seq: l.loop.ReserveSeq()})
	}
	seq := l.loop.ReserveSeq()
	if l.armed {
		l.followers.Push(delivery{f: f, at: arrival, seq: seq})
		return
	}
	l.armed = true
	l.loop.AtReserved(arrival, seq, l.deliverFn, f)
}

// occupancy drops the departures the loop has passed and returns how many
// frames are still queued or in transmission.
func (l *Link) occupancy() int {
	for l.departs.Len() > 0 {
		if d := l.departs.Front(); !l.loop.Passed(d.at, d.seq) {
			break
		}
		l.departs.Pop()
	}
	return l.departs.Len()
}
