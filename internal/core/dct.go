package core

import (
	"slices"
	"time"

	"reorder/internal/ipid"
	"reorder/internal/packet"
)

// DCTOptions configures the dual connection test (§III-C).
type DCTOptions struct {
	// Samples is the number of packet-pair measurements.
	Samples int
	// Gap spaces the two sample packets; sweeping it yields the Fig 7
	// time-domain distribution.
	Gap time.Duration
	// SkipValidation runs the test without the prevalidation pass —
	// exactly the mistake the paper warns produces spurious results; it
	// exists so experiments can demonstrate the failure.
	SkipValidation bool
}

func (o DCTOptions) defaults() DCTOptions {
	if o.Samples == 0 {
		o.Samples = 15
	}
	return o
}

// DualConnectionTest measures both directions using two TCP connections and
// the remote host's IPID stream. Each sample sends one out-of-window packet
// on each connection; the receiver acknowledges both immediately (no
// delayed-ACK interference), and the IPIDs stamped on the acknowledgments
// recover the order the remote host received — and sent — them.
//
// Unless SkipValidation is set, the target's IPID behaviour is validated
// first; ErrIPIDUnusable is returned for hosts with random or constant
// IPIDs or whose connections terminate on different machines behind a load
// balancer (Fig 3).
func (p *Prober) DualConnectionTest(o DCTOptions) (*Result, error) {
	return fresh(p.DualConnectionTestInto, o)
}

// DualConnectionTestInto is DualConnectionTest into caller-owned storage:
// res is overwritten completely, its Samples storage reused. The result is
// valid until the next probe into res; on error it is empty.
func (p *Prober) DualConnectionTestInto(res *Result, o DCTOptions) error {
	o = o.defaults()
	res.begin("dual", p.target)

	ca, err := p.connect(targetPort, defaultConnect())
	if err != nil {
		return err
	}
	defer ca.reset()
	cb, err := p.connect(targetPort, defaultConnect())
	if err != nil {
		return err
	}
	defer cb.reset()

	if !o.SkipValidation && !p.validateIPID(&p.ipidRep, ca, cb, validationProbes, replyTimeout).Usable() {
		return ErrIPIDUnusable
	}

	res.Samples = slices.Grow(res.Samples, o.Samples)
	for i := 0; i < o.Samples; i++ {
		s := p.dctSample(ca, cb, o)
		s.Gap = o.Gap
		res.Samples = append(res.Samples, s)
	}
	return nil
}

// ping sends the connection's out-of-window probe: one byte one past the
// sequence the server expects, which is queued out-of-order and acknowledged
// immediately without advancing any state. It can be repeated indefinitely.
func (c *conn) ping() uint64 {
	return c.sendSeg(packet.FlagACK, c.iss+2, c.rcvNxt, []byte{'p'}, nil)
}

// awaitPingAck waits for the immediate duplicate ACK a ping elicits
// (ack = iss+1) and returns the packet for its IPID.
func (c *conn) awaitPingAck(timeout time.Duration) (*packet.Packet, uint64, bool) {
	return c.awaitSeg(timeout, func(h *packet.TCPHeader) bool {
		return h.HasFlags(packet.FlagACK) && h.Flags&(packet.FlagSYN|packet.FlagRST|packet.FlagFIN) == 0 &&
			h.Ack == c.iss+1
	})
}

// dctSample sends the pair (connection A first) and classifies.
func (p *Prober) dctSample(ca, cb *conn, o DCTOptions) Sample {
	p.flushPort(ca.lport)
	p.flushPort(cb.lport)

	var s Sample
	sentAt := p.tp.Now()
	s.SentIDs[0] = ca.ping()
	if o.Gap > 0 {
		p.tp.Sleep(o.Gap)
	}
	s.SentIDs[1] = cb.ping()

	// Collect both acknowledgments in arrival order. Fixed-size state (two
	// connections, at most two replies) keeps the per-sample loop off the
	// heap.
	type reply struct {
		conn *conn
		ipid uint16
		id   uint64
	}
	var replies [2]reply
	nreplies := 0
	deadline := p.tp.Now().Add(replyTimeout)
	var seenA, seenB bool
	match := func(q *packet.Packet) bool {
		if !seenA && q.TCP.SrcPort == ca.rport && q.TCP.DstPort == ca.lport &&
			q.TCP.HasFlags(packet.FlagACK) &&
			q.TCP.Flags&(packet.FlagSYN|packet.FlagRST|packet.FlagFIN) == 0 &&
			q.TCP.Ack == ca.iss+1 {
			return true
		}
		if !seenB && q.TCP.SrcPort == cb.rport && q.TCP.DstPort == cb.lport &&
			q.TCP.HasFlags(packet.FlagACK) &&
			q.TCP.Flags&(packet.FlagSYN|packet.FlagRST|packet.FlagFIN) == 0 &&
			q.TCP.Ack == cb.iss+1 {
			return true
		}
		return false
	}
	for nreplies < 2 {
		remaining := deadline.Sub(p.tp.Now())
		if remaining <= 0 {
			break
		}
		pkt, id, ok := p.awaitTCP(remaining, match)
		if !ok {
			break
		}
		which := ca
		if pkt.TCP.DstPort == cb.lport {
			which = cb
		}
		if nreplies == 0 {
			s.RTT = p.tp.Now().Sub(sentAt)
		}
		if which == ca {
			seenA = true
		} else {
			seenB = true
		}
		replies[nreplies] = reply{conn: which, ipid: pkt.IP.ID, id: id}
		nreplies++
		p.release(pkt)
	}

	if nreplies < 2 {
		return Sample{Forward: VerdictLost, Reverse: VerdictLost, SentIDs: s.SentIDs, RTT: s.RTT}
	}
	s.ReplyIPIDs = [2]uint16{replies[0].ipid, replies[1].ipid}
	s.ReplyIDs = [2]uint64{replies[0].id, replies[1].id}

	// Identify each connection's acknowledgment IPID.
	var ia, ib uint16
	for _, r := range replies {
		if r.conn == ca {
			ia = r.ipid
		} else {
			ib = r.ipid
		}
	}
	if ia == ib {
		// A shared strictly increasing counter cannot produce equal IPIDs;
		// prevalidation should have caught this, but classify defensively.
		return Sample{Forward: VerdictAmbiguous, Reverse: VerdictAmbiguous, SentIDs: s.SentIDs, ReplyIPIDs: s.ReplyIPIDs}
	}

	// Forward: we sent A's sample first; the server stamped whichever
	// arrived first with the smaller IPID.
	if packet.IPIDLess(ia, ib) {
		s.Forward = VerdictInOrder
	} else {
		s.Forward = VerdictReordered
	}
	// Reverse: the server transmitted the acknowledgments in IPID order;
	// receiving the larger IPID first means they were exchanged in flight.
	if packet.IPIDLess(replies[0].ipid, replies[1].ipid) {
		s.Reverse = VerdictInOrder
	} else {
		s.Reverse = VerdictReordered
	}
	return s
}

// IPIDCheckOptions configures the standalone IPID prevalidation.
type IPIDCheckOptions struct {
	// Probes is the number of observations (default 12).
	Probes int
}

// ValidateIPID opens two connections to the target, elicits acknowledgments
// strictly one at a time while alternating connections, and analyzes the
// observed IPID stream per §III-C: cross-connection differences must be
// small positive steps dominated by within-connection differences. The
// returned report's Usable method gates the dual connection test.
func (p *Prober) ValidateIPID(o IPIDCheckOptions) (*ipid.Report, error) {
	if o.Probes == 0 {
		o.Probes = validationProbes
	}
	ca, err := p.connect(targetPort, defaultConnect())
	if err != nil {
		return nil, err
	}
	defer ca.reset()
	cb, err := p.connect(targetPort, defaultConnect())
	if err != nil {
		return nil, err
	}
	defer cb.reset()
	return p.validateIPID(new(ipid.Report), ca, cb, o.Probes, replyTimeout), nil
}

// IPIDExclusion returns why the last dual or burst test's own IPID
// validation returned ErrIPIDUnusable, as ipid.Report.Exclusion words it.
func (p *Prober) IPIDExclusion() string { return p.ipidRep.Exclusion() }

// validateIPID runs probes elicitations over existing connections into rep,
// waiting at most timeout for each. The observation slice is prober-owned
// scratch (ipid.ValidateInto does not retain it).
func (p *Prober) validateIPID(rep *ipid.Report, ca, cb *conn, probes int, timeout time.Duration) *ipid.Report {
	obs := p.obsScratch[:0]
	conns := [2]*conn{ca, cb}
	for i := 0; i < probes; i++ {
		c := conns[i%2]
		c.ping()
		pkt, _, ok := c.awaitPingAck(timeout)
		if !ok {
			continue // lost probe or ack; the report's sample count shrinks
		}
		obs = append(obs, ipid.Observation{Conn: i % 2, ID: pkt.IP.ID})
		p.release(pkt)
	}
	p.obsScratch = obs
	return ipid.ValidateInto(rep, obs)
}
