package netem

import (
	"time"

	"reorder/internal/packet"
	"reorder/internal/sim"
)

// This file models the other reordering mechanisms the paper's conclusion
// enumerates beyond striped trunks: per-packet multi-path routing, layer-2
// retransmission across lossy (wireless) links, and DiffServ-style
// priority scheduling. Each produces a distinct time-domain signature,
// which the mechanisms experiment (E8) measures with the gap-parameterized
// dual connection test.

// MultiPathConfig describes per-packet spraying over unequal paths.
type MultiPathConfig struct {
	// Delays are the one-way delays of the member paths; packets are
	// sprayed round-robin across them. Reordering occurs when the delay
	// difference between consecutive members exceeds the packet gap.
	Delays []time.Duration
	// Jitter adds a uniform draw in [0, Jitter) per packet per path.
	Jitter time.Duration
}

// MultiPath sprays packets per-packet across paths of different latency —
// the "multi-path routing" cause. Unlike the striped trunk there is no
// per-member queue coupling; the signature is a step: pairs closer
// together than the member delay spread reorder with fixed probability,
// pairs farther apart never do.
type MultiPath struct {
	cfg   MultiPathConfig
	loop  *sim.Loop
	next  Node
	rng   *sim.Rand
	nextM int
	// lastArrival enforces per-member FIFO.
	lastArrival []sim.Time
	stats       Counters
	deliverFn   func(any)
}

// NewMultiPath returns a sprayer feeding next.
func NewMultiPath(loop *sim.Loop, cfg MultiPathConfig, rng *sim.Rand, next Node) *MultiPath {
	m := &MultiPath{loop: loop}
	m.deliverFn = func(arg any) {
		m.stats.Out++
		m.next.Input(arg.(*Frame))
	}
	m.Reinit(cfg, rng, next)
	return m
}

// Reinit configures the sprayer — two members 100µs apart when cfg names
// none — and empties it, keeping its loop, cached callback and per-member
// state slice; NewMultiPath ends by calling it.
func (m *MultiPath) Reinit(cfg MultiPathConfig, rng *sim.Rand, next Node) {
	if len(cfg.Delays) == 0 {
		cfg.Delays = []time.Duration{time.Millisecond, time.Millisecond + 100*time.Microsecond}
	}
	m.cfg, m.rng, m.next = cfg, rng, next
	m.stats = Counters{}
	m.nextM = 0
	m.lastArrival = resetTimes(m.lastArrival, len(cfg.Delays))
}

// Stats returns a snapshot of the element's counters.
func (m *MultiPath) Stats() Counters { return m.stats }

// Input implements Node.
func (m *MultiPath) Input(f *Frame) {
	m.stats.In++
	i := m.nextM
	m.nextM = (m.nextM + 1) % len(m.cfg.Delays)
	d := m.cfg.Delays[i]
	if m.cfg.Jitter > 0 {
		d += time.Duration(m.rng.Float64() * float64(m.cfg.Jitter))
	}
	at := m.loop.Now().Add(d)
	if at < m.lastArrival[i] {
		at = m.lastArrival[i] // FIFO within a member path
	}
	m.lastArrival[i] = at
	m.loop.AtArg(at, m.deliverFn, f)
}

// ARQConfig describes a layer-2 link with retransmission, e.g. 802.11.
type ARQConfig struct {
	// FrameErrorRate is the probability a frame needs retransmission.
	FrameErrorRate float64
	// RetransmitDelay is the per-attempt recovery latency (timeout plus
	// retransmission).
	RetransmitDelay time.Duration
	// MaxRetries bounds attempts; a frame exceeding it is dropped.
	MaxRetries int
	// InOrder, when set, makes the link hold subsequent frames behind a
	// frame under recovery (802.11-style strict order): no reordering,
	// only delay. When false the link delivers out of order — the
	// behaviour the paper's "layer 2 retransmission" cause refers to.
	InOrder bool
}

func (c *ARQConfig) setDefaults() {
	if c.RetransmitDelay == 0 {
		c.RetransmitDelay = 2 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
}

// ARQLink models link-layer recovery. Its reordering signature is a long
// flat tail: a corrupted frame falls one full RetransmitDelay behind,
// overtaken by any frame sent within that window — orders of magnitude
// longer than queue-imbalance reordering.
type ARQLink struct {
	cfg   ARQConfig
	loop  *sim.Loop
	next  Node
	rng   *sim.Rand
	stats Counters
	// release is when the last frame (in send order) will be delivered,
	// used for the InOrder variant.
	release   sim.Time
	deliverFn func(any)
}

// NewARQLink returns an ARQ link feeding next.
func NewARQLink(loop *sim.Loop, cfg ARQConfig, rng *sim.Rand, next Node) *ARQLink {
	l := &ARQLink{loop: loop}
	l.deliverFn = func(arg any) {
		l.stats.Out++
		l.next.Input(arg.(*Frame))
	}
	l.Reinit(cfg, rng, next)
	return l
}

// Reinit configures the link and empties it, keeping its loop and cached
// callback; NewARQLink ends by calling it.
func (l *ARQLink) Reinit(cfg ARQConfig, rng *sim.Rand, next Node) {
	cfg.setDefaults()
	l.cfg, l.rng, l.next = cfg, rng, next
	l.stats = Counters{}
	l.release = 0
}

// Stats returns a snapshot of the element's counters. Swapped counts
// frames delivered after retransmission recovery.
func (l *ARQLink) Stats() Counters { return l.stats }

// Input implements Node.
func (l *ARQLink) Input(f *Frame) {
	l.stats.In++
	delay := time.Duration(0)
	attempts := 0
	for l.rng.Bool(l.cfg.FrameErrorRate) {
		attempts++
		if attempts > l.cfg.MaxRetries {
			l.stats.Dropped++
			return
		}
		delay += l.cfg.RetransmitDelay
	}
	if attempts > 0 {
		l.stats.Swapped++
	}
	at := l.loop.Now().Add(delay)
	if l.cfg.InOrder && at < l.release {
		at = l.release
	}
	if l.cfg.InOrder {
		l.release = at
	}
	l.loop.AtArg(at, l.deliverFn, f)
}

// PriorityConfig describes a two-class strict-priority scheduler keyed on
// the IP TOS/DSCP field.
type PriorityConfig struct {
	// RateBps is the output line rate (default 100 Mbps).
	RateBps int64
}

// highTOSMask selects the high-priority class: packets whose TOS has any
// masked bit set are expedited. 0x10 is the classic low-delay TOS bit.
const highTOSMask = 0x10

// PriorityQueue is a DiffServ-style strict-priority transmitter: a later
// high-priority packet departs before queued low-priority packets. It
// reorders across classes only — a single-class flow passes in order,
// which is why DiffServ reordering bites flows whose packets carry mixed
// markings.
type PriorityQueue struct {
	cfg   PriorityConfig
	loop  *sim.Loop
	next  Node
	stats Counters

	busyUntil sim.Time
	// high and low are head-indexed queues so steady-state pops reuse the
	// backing arrays instead of reslicing them away from reuse.
	high, low         []*Frame
	highHead, lowHead int
	deliverFn         func(any)
}

// NewPriorityQueue returns a scheduler feeding next.
func NewPriorityQueue(loop *sim.Loop, cfg PriorityConfig, next Node) *PriorityQueue {
	q := &PriorityQueue{loop: loop}
	q.deliverFn = func(arg any) {
		q.stats.Out++
		q.next.Input(arg.(*Frame))
		q.kick()
	}
	q.Reinit(cfg, next)
	return q
}

// Reinit configures the scheduler and empties it, keeping its loop, cached
// callback and queue storage; NewPriorityQueue ends by calling it.
func (q *PriorityQueue) Reinit(cfg PriorityConfig, next Node) {
	if cfg.RateBps == 0 {
		cfg.RateBps = 100_000_000
	}
	q.cfg, q.next = cfg, next
	q.stats = Counters{}
	q.busyUntil = 0
	q.high, q.low = q.high[:0], q.low[:0]
	q.highHead, q.lowHead = 0, 0
}

// Stats returns a snapshot of the element's counters.
func (q *PriorityQueue) Stats() Counters { return q.stats }

// Input implements Node.
func (q *PriorityQueue) Input(f *Frame) {
	q.stats.In++
	if tosOf(f)&highTOSMask != 0 {
		q.high = append(q.high, f)
	} else {
		q.low = append(q.low, f)
	}
	q.kick()
}

// tosOf reads the TOS byte without full decoding: straight off the view
// when one is attached, else from the validated wire header.
func tosOf(f *Frame) uint8 {
	if v := f.View(); v != nil {
		return v.IP.TOS
	}
	if _, ok := packet.PeekFlow(f.Data); !ok {
		return 0
	}
	return f.Data[1]
}

// kick starts transmission if the line is idle.
func (q *PriorityQueue) kick() {
	now := q.loop.Now()
	if q.busyUntil > now {
		return // the completion event will re-kick
	}
	var f *Frame
	switch {
	case q.highHead < len(q.high):
		f = q.high[q.highHead]
		q.high[q.highHead] = nil
		q.highHead++
		if q.highHead == len(q.high) {
			q.high, q.highHead = q.high[:0], 0
		}
	case q.lowHead < len(q.low):
		f = q.low[q.lowHead]
		q.low[q.lowHead] = nil
		q.lowHead++
		if q.lowHead == len(q.low) {
			q.low, q.lowHead = q.low[:0], 0
		}
	default:
		return
	}
	tx := time.Duration(int64(f.Len()) * 8 * int64(time.Second) / q.cfg.RateBps)
	q.busyUntil = now.Add(tx)
	q.loop.AtArg(q.busyUntil, q.deliverFn, f)
}
