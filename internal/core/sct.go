package core

import (
	"slices"
	"time"

	"reorder/internal/packet"
	"reorder/internal/sim"
)

// SCTOptions configures the single connection test (§III-B).
type SCTOptions struct {
	// Samples is the number of packet-pair measurements (paper used 15 per
	// measurement).
	Samples int
	// Gap spaces the two sample packets (0 = back-to-back).
	Gap time.Duration
	// Reversed sends the high-sequence sample first, which elicits only
	// immediate ACKs in the common in-order case, sidestepping delayed
	// acknowledgments at the cost of a loss/reorder ambiguity.
	Reversed bool
	// ReplyTimeout bounds each wait for an acknowledgment. It must exceed
	// the target's delayed-ACK timeout plus one RTT (default 1s).
	ReplyTimeout time.Duration
	// SampleTOS marks the two sample packets (in send order) with IP TOS
	// values, exposing DiffServ-style cross-class reordering: a strict-
	// priority scheduler reorders a flow only when its packets carry
	// mixed markings. Zero values leave the default best-effort marking.
	SampleTOS [2]uint8
	// PrimerBytes, when nonzero, sends a payload of this size to a closed
	// port immediately before the sample pair, occupying the bottleneck
	// queue so scheduler effects (priority overtaking) become observable
	// on a pair of minimum-sized samples.
	PrimerBytes int
}

// discardPort is where queue-primer filler is addressed; nothing listens
// there, so at most a RST comes back on a distinct port pair.
const discardPort = 9

// prepRetries bounds the hole-preparation and repair retransmissions.
const prepRetries = 5

func (o SCTOptions) defaults() SCTOptions {
	if o.Samples == 0 {
		o.Samples = 15
	}
	if o.ReplyTimeout == 0 {
		o.ReplyTimeout = replyTimeout
	}
	return o
}

// SingleConnectionTest measures forward- and reverse-path reordering using
// one TCP connection. Each sample prepares a sequence hole at the receiver
// (an out-of-order byte queued beyond the expected sequence number), then
// sends two one-byte samples straddling the hole. The receiver's
// acknowledgment pattern distinguishes delivery order, and the arrival
// order of the acknowledgments exposes reverse-path exchanges.
func (p *Prober) SingleConnectionTest(o SCTOptions) (*Result, error) {
	return fresh(p.SingleConnectionTestInto, o)
}

// SingleConnectionTestInto is SingleConnectionTest into caller-owned
// storage: res is overwritten completely, its Samples storage reused. The
// result is valid until the next probe into res; on error it is empty.
func (p *Prober) SingleConnectionTestInto(res *Result, o SCTOptions) error {
	o = o.defaults()
	res.begin("single", p.target)
	c, err := p.connect(targetPort, defaultConnect())
	if err != nil {
		return err
	}
	defer c.reset()

	res.Samples = slices.Grow(res.Samples, o.Samples)
	base := c.iss + 1 // the next byte the server expects from us
	for i := 0; i < o.Samples; i++ {
		s := p.sctSample(c, &base, o)
		s.Gap = o.Gap
		res.Samples = append(res.Samples, s)
	}
	return nil
}

// sctSample runs one prepare/measure/repair cycle. base is the server's
// current rcvNxt for our data and advances by 3 on success.
func (p *Prober) sctSample(c *conn, base *uint32, o SCTOptions) Sample {
	b := *base
	p.flushPort(c.lport) // discard any stale acknowledgments

	// Preparation: queue one byte at b+1 until the server acknowledges
	// that it still expects b — proof the hole exists.
	prepared := false
	for try := 0; try < prepRetries && !prepared; try++ {
		c.sendSeg(packet.FlagACK, b+1, c.rcvNxt, []byte{'h'}, nil)
		prepared = c.awaitAckValue(o.ReplyTimeout, b)
	}
	if !prepared {
		return Sample{Forward: VerdictLost, Reverse: VerdictLost}
	}

	// Measurement: two 1-byte samples straddling the queued byte.
	low, high := b, b+2
	first, second := low, high
	if o.Reversed {
		first, second = high, low
	}
	var s Sample
	if o.PrimerBytes > 0 {
		// A filler datagram to a discard port: it elicits at most a RST on
		// a different port pair (filtered out by the waiters) and keeps
		// the bottleneck transmitter busy while the samples queue behind.
		p.sendRawTOS(o.SampleTOS[0], c.lport, discardPort, packet.FlagACK, 1, 1, 0,
			make([]byte, o.PrimerBytes), nil)
	}
	sentAt := p.tp.Now()
	s.SentIDs[0] = c.sendSegTOS(o.SampleTOS[0], packet.FlagACK, first, c.rcvNxt, []byte{'1'}, nil)
	if o.Gap > 0 {
		p.tp.Sleep(o.Gap)
	}
	s.SentIDs[1] = c.sendSegTOS(o.SampleTOS[1], packet.FlagACK, second, c.rcvNxt, []byte{'2'}, nil)

	// Collect up to two acknowledgments.
	acks, ids, firstAt := p.collectAcks(c, 2, o.ReplyTimeout)
	copy(s.ReplyIDs[:], ids)
	if len(acks) > 0 {
		s.RTT = firstAt.Sub(sentAt)
	}
	s.Forward, s.Reverse = classifySCT(acks, b, o.Reversed)

	// Repair: retransmit the full three bytes until the server confirms
	// rcvNxt = b+3, so the next sample starts from known state even after
	// losses.
	for try := 0; try < prepRetries; try++ {
		c.sendSeg(packet.FlagACK, b, c.rcvNxt, []byte{'1', 'h', '2'}, nil)
		if c.awaitAckValue(o.ReplyTimeout, b+3) {
			break
		}
	}
	*base = b + 3
	return s
}

// collectAcks gathers up to n pure-ACK values on the connection, in arrival
// order with their frame IDs and the first reply's arrival time, waiting at
// most timeout for each. The returned slices are prober-owned scratch,
// valid until the next collectAcks call.
func (p *Prober) collectAcks(c *conn, n int, timeout time.Duration) ([]uint32, []uint64, sim.Time) {
	acks := p.acksBuf[:0]
	ids := p.ackIDs[:0]
	var firstAt sim.Time
	for len(acks) < n {
		pkt, id, ok := c.awaitSeg(timeout, func(h *packet.TCPHeader) bool {
			return h.HasFlags(packet.FlagACK) && h.Flags&(packet.FlagSYN|packet.FlagRST|packet.FlagFIN) == 0
		})
		if !ok {
			break
		}
		if len(acks) == 0 {
			firstAt = p.tp.Now()
		}
		acks = append(acks, pkt.TCP.Ack)
		ids = append(ids, id)
		p.release(pkt)
	}
	p.acksBuf, p.ackIDs = acks, ids
	return acks, ids, firstAt
}

// classifySCT maps the acknowledgment pattern to per-direction verdicts.
//
// With hole base b (byte b+1 queued, samples at b and b+2):
//
//	normal send order (low first):
//	  in-order delivery  -> ack(b+2) then ack(b+3)
//	  reordered delivery -> ack(b)   then ack(b+3)
//	reversed send order (high first):
//	  in-order delivery  -> ack(b)   then ack(b+3)
//	  reordered delivery -> ack(b+2) then ack(b+3)
//
// In both modes the acknowledgment of the complete sequence, ack(b+3), is
// sent last; receiving it first means the acknowledgments themselves were
// exchanged on the reverse path.
func classifySCT(acks []uint32, b uint32, reversed bool) (fwd, rev Verdict) {
	midInOrder, midReordered := b+2, b
	if reversed {
		midInOrder, midReordered = b, b+2
	}
	full := b + 3

	classifyMid := func(a uint32) Verdict {
		switch a {
		case midInOrder:
			return VerdictInOrder
		case midReordered:
			return VerdictReordered
		default:
			return VerdictAmbiguous
		}
	}

	switch len(acks) {
	case 2:
		a1, a2 := acks[0], acks[1]
		switch {
		case a2 == full && a1 != full:
			return classifyMid(a1), VerdictInOrder
		case a1 == full && a2 != full:
			// The full-sequence ACK overtook the mid ACK: reverse-path
			// exchange; the mid ACK still reveals the forward order.
			return classifyMid(a2), VerdictReordered
		default:
			return VerdictAmbiguous, VerdictAmbiguous
		}
	case 1:
		// A single acknowledgment cannot separate loss from reordering:
		// a lone mid ACK may mean the other sample never arrived, and the
		// paper's "lone ack 4" may be a reverse loss or a forward
		// reordering. Such samples are discarded (§III-B).
		if acks[0] == full {
			return VerdictAmbiguous, VerdictLost
		}
		return VerdictLost, VerdictLost
	default:
		return VerdictLost, VerdictLost
	}
}
