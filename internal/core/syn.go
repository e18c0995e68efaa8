package core

import (
	"slices"
	"time"

	"reorder/internal/packet"
)

// SYNOptions configures the SYN test (§III-D).
type SYNOptions struct {
	// Samples is the number of SYN-pair measurements.
	Samples int
	// Gap spaces the two SYNs.
	Gap time.Duration
	// ReplyTimeout bounds each wait for a reply (default 1s).
	ReplyTimeout time.Duration
}

// synSeqOffset is how far the second SYN's sequence number is advanced
// from the first.
const synSeqOffset = 64

func (o SYNOptions) defaults() SYNOptions {
	if o.Samples == 0 {
		o.Samples = 15
	}
	if o.ReplyTimeout == 0 {
		o.ReplyTimeout = replyTimeout
	}
	return o
}

// SYNTest measures both directions using pairs of SYN packets that are
// identical except for slightly offset sequence numbers. Because both SYNs
// share the 4-tuple, per-flow load balancers deliver them to the same
// backend, making this the technique of choice for load-balanced sites
// where the dual connection test is invalid.
//
// The first SYN to arrive elicits the SYN/ACK; its acknowledgment number
// identifies which one that was (forward path). The second SYN elicits a
// RST from common stacks (or a pure ACK from spec-following ones), always
// after the SYN/ACK, so the arrival order of the two replies exposes
// reverse-path exchanges. After each sample the connection is completed and
// reset, per the paper's SYN-flood etiquette.
func (p *Prober) SYNTest(o SYNOptions) (*Result, error) { return fresh(p.SYNTestInto, o) }

// SYNTestInto is SYNTest into caller-owned storage: res is overwritten
// completely, its Samples storage reused. The result is valid until the
// next probe into res.
func (p *Prober) SYNTestInto(res *Result, o SYNOptions) error {
	o = o.defaults()
	res.begin("syn", p.target)
	res.Samples = slices.Grow(res.Samples, o.Samples)
	for i := 0; i < o.Samples; i++ {
		s := p.synSample(o)
		s.Gap = o.Gap
		res.Samples = append(res.Samples, s)
		p.tp.Sleep(pace)
	}
	return nil
}

func (p *Prober) synSample(o SYNOptions) Sample {
	lport := p.allocPort()
	iss := p.rng.Uint32()
	seq1, seq2 := iss, iss+synSeqOffset

	var s Sample
	sentAt := p.tp.Now()
	s.SentIDs[0] = p.sendRaw(lport, targetPort, packet.FlagSYN, seq1, 0, 65535, nil, nil)
	if o.Gap > 0 {
		p.tp.Sleep(o.Gap)
	}
	s.SentIDs[1] = p.sendRaw(lport, targetPort, packet.FlagSYN, seq2, 0, 65535, nil, nil)

	// Collect up to two replies on this 4-tuple in arrival order. A few
	// implementations send two RSTs; the extra reply is flushed afterward.
	// The slice is prober-owned scratch, reused across samples.
	replies := p.synReplies[:0]
	deadline := p.tp.Now().Add(o.ReplyTimeout)
	for len(replies) < 2 {
		remaining := deadline.Sub(p.tp.Now())
		if remaining <= 0 {
			break
		}
		pkt, id, ok := p.awaitTCP(remaining, func(q *packet.Packet) bool {
			return q.TCP.SrcPort == targetPort && q.TCP.DstPort == lport
		})
		if !ok {
			break
		}
		if len(replies) == 0 {
			s.RTT = p.tp.Now().Sub(sentAt)
		}
		if len(replies) < 2 {
			s.ReplyIDs[len(replies)] = id
		}
		replies = append(replies, pkt)
	}

	s.Forward, s.Reverse = classifySYN(replies, seq1, seq2)

	// Etiquette: complete the handshake the server is holding open, then
	// tear it down, so we never leave half-open state resembling an attack.
	for _, r := range replies {
		if r.TCP.HasFlags(packet.FlagSYN | packet.FlagACK) {
			p.sendRaw(lport, targetPort, packet.FlagACK, r.TCP.Ack, r.TCP.Seq+1, 65535, nil, nil)
			p.sendRaw(lport, targetPort, packet.FlagRST, r.TCP.Ack, 0, 0, nil, nil)
			break
		}
	}
	for _, r := range replies {
		p.release(r)
	}
	p.synReplies = replies[:0]
	p.flushPort(lport)
	return s
}

// classifySYN derives the verdicts from the replies to a SYN pair with
// sequence numbers seq1 (sent first) and seq2.
func classifySYN(replies []*packet.Packet, seq1, seq2 uint32) (fwd, rev Verdict) {
	var synAck *packet.Packet
	synAckIdx := -1
	for i, r := range replies {
		if r.TCP.HasFlags(packet.FlagSYN | packet.FlagACK) {
			synAck = r
			synAckIdx = i
			break
		}
	}
	if synAck == nil {
		// No SYN/ACK at all: both SYNs or the SYN/ACK lost, or the target
		// does not accept connections.
		return VerdictLost, VerdictLost
	}

	// Forward: the SYN/ACK acknowledges the first SYN the server received.
	switch synAck.TCP.Ack {
	case seq1 + 1:
		fwd = VerdictInOrder
	case seq2 + 1:
		fwd = VerdictReordered
	default:
		fwd = VerdictAmbiguous
	}

	// Reverse: the server sends the SYN/ACK before the second SYN's
	// RST/ACK. Observing the RST (or challenge ACK) first means the
	// replies were exchanged in flight.
	if len(replies) < 2 {
		// One reply only (e.g. implementations that ignore the second
		// SYN): the reverse direction is unmeasurable this sample.
		rev = VerdictLost
		return fwd, rev
	}
	if synAckIdx == 0 {
		rev = VerdictInOrder
	} else {
		rev = VerdictReordered
	}
	return fwd, rev
}
