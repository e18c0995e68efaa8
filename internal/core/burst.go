package core

import (
	"fmt"
	"time"

	"reorder/internal/metrics"
	"reorder/internal/packet"
)

// BurstOptions configures the k-packet burst test, a generalization of the
// dual connection test from pairs to trains. The paper proposes the
// pairwise exchange as a primitive "that can be further parameterized to
// capture more sophisticated phenomena"; recovering the full arrival
// permutation of a k-packet train is the natural next step, and feeding it
// to the sequence metrics (internal/metrics) yields reordering extents and
// n-reordering — the quantities that predict protocol impact (e.g.
// spurious fast retransmits at TCP's dupthresh).
type BurstOptions struct {
	// BurstSize is the number of packets per train, one connection each
	// (default 5, Bennett's small burst for comparability).
	BurstSize int
	// Bursts is the number of trains (default 10).
	Bursts int
	// Gap spaces consecutive packets within a train.
	Gap time.Duration
	// ReplyTimeout bounds the wait for each train's acknowledgments.
	ReplyTimeout time.Duration
}

func (o BurstOptions) defaults() BurstOptions {
	if o.BurstSize == 0 {
		o.BurstSize = 5
	}
	if o.Bursts == 0 {
		o.Bursts = 10
	}
	if o.ReplyTimeout == 0 {
		o.ReplyTimeout = replyTimeout
	}
	return o
}

// BurstSample is one train's outcome.
type BurstSample struct {
	// Sent is the train length; Received the acknowledged count.
	Sent, Received int
	// ForwardArrivals are the send positions of the train's packets in
	// the order the server received them, recovered from the IPID order
	// of the acknowledgments. Missing packets are omitted.
	ForwardArrivals []int
	// ReverseArrivals are the send positions of the server's
	// acknowledgments (IPID order defines the send positions) in probe
	// arrival order.
	ReverseArrivals []int
}

// Forward returns the sequence metrics of the train's forward direction.
func (s *BurstSample) Forward() *metrics.Report { return metrics.Analyze(s.ForwardArrivals) }

// Reverse returns the sequence metrics of the reverse direction.
func (s *BurstSample) Reverse() *metrics.Report { return metrics.Analyze(s.ReverseArrivals) }

// BurstResult aggregates the trains.
type BurstResult struct {
	Target  string
	Bursts  []BurstSample
	Options BurstOptions
}

// ForwardAggregate concatenates all trains' forward metrics into one
// report (each train analyzed independently, counts summed).
func (r *BurstResult) ForwardAggregate() *metrics.Report {
	return aggregate(r.Bursts, (*BurstSample).Forward)
}

// ReverseAggregate concatenates all trains' reverse metrics.
func (r *BurstResult) ReverseAggregate() *metrics.Report {
	return aggregate(r.Bursts, (*BurstSample).Reverse)
}

func aggregate(bursts []BurstSample, dir func(*BurstSample) *metrics.Report) *metrics.Report {
	total := &metrics.Report{}
	for i := range bursts {
		rep := dir(&bursts[i])
		total.Sent += rep.Sent
		total.Received += rep.Received
		total.Exchanges += rep.Exchanges
		total.Reordered += rep.Reordered
		total.Extents = append(total.Extents, rep.Extents...)
		for n, c := range rep.NReordering {
			for len(total.NReordering) <= n {
				total.NReordering = append(total.NReordering, 0)
			}
			total.NReordering[n] += c
		}
	}
	return total
}

// BurstTest sends trains of k out-of-window probes, one per connection,
// and recovers the full forward and reverse arrival permutations from the
// acknowledgments' IPIDs and arrival order. IPID prevalidation gates the
// test exactly as for the dual connection test.
func (p *Prober) BurstTest(o BurstOptions) (*BurstResult, error) {
	o = o.defaults()

	conns := make([]*conn, o.BurstSize)
	for i := range conns {
		c, err := p.connect(targetPort, defaultConnect())
		if err != nil {
			return nil, err
		}
		defer c.reset()
		conns[i] = c
	}
	if rep := p.validateIPID(&p.ipidRep, conns[0], conns[1], validationProbes, o.ReplyTimeout); !rep.Usable() {
		return nil, ErrIPIDUnusable
	}

	res := &BurstResult{Target: p.target.String(), Options: o}
	for b := 0; b < o.Bursts; b++ {
		res.Bursts = append(res.Bursts, p.burstOnce(conns, o))
		p.tp.Sleep(pace)
	}
	return res, nil
}

func (p *Prober) burstOnce(conns []*conn, o BurstOptions) BurstSample {
	for _, c := range conns {
		p.flushPort(c.lport)
	}
	s := BurstSample{Sent: len(conns)}
	for i, c := range conns {
		if i > 0 && o.Gap > 0 {
			p.tp.Sleep(o.Gap)
		}
		c.ping()
	}

	// Collect one acknowledgment per connection, in arrival order.
	var acks []ackRec
	byPort := map[uint16]int{}
	for i, c := range conns {
		byPort[c.lport] = i
	}
	pending := map[int]bool{}
	for i := range conns {
		pending[i] = true
	}
	deadline := p.tp.Now().Add(o.ReplyTimeout)
	for len(acks) < len(conns) {
		remaining := deadline.Sub(p.tp.Now())
		if remaining <= 0 {
			break
		}
		pkt, _, ok := p.awaitTCP(remaining, func(q *packet.Packet) bool {
			i, isOurs := byPort[q.TCP.DstPort]
			if !isOurs || !pending[i] {
				return false
			}
			c := conns[i]
			return q.TCP.SrcPort == c.rport && q.TCP.HasFlags(packet.FlagACK) &&
				q.TCP.Flags&(packet.FlagSYN|packet.FlagRST|packet.FlagFIN) == 0 &&
				q.TCP.Ack == c.iss+1
		})
		if !ok {
			break
		}
		i := byPort[pkt.TCP.DstPort]
		delete(pending, i)
		acks = append(acks, ackRec{pos: i, ipid: pkt.IP.ID})
		p.release(pkt)
	}
	s.Received = len(acks)

	// Reverse permutation: acks are already in probe arrival order; their
	// send order at the server is their IPID order. Rank IPIDs to get
	// send positions.
	ranks := ipidRanks(acks)
	for i := range acks {
		s.ReverseArrivals = append(s.ReverseArrivals, ranks[i])
	}

	// Forward permutation: the server acknowledged in receive order and
	// its IPIDs expose that order; sorting the acks by IPID gives server
	// receive order, and each ack's connection index is the send
	// position.
	order := make([]int, len(acks))
	for i := range order {
		order[i] = i
	}
	// Insertion sort by IPID with wraparound compare (k is tiny).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && packet.IPIDLess(acks[order[j]].ipid, acks[order[j-1]].ipid); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, idx := range order {
		s.ForwardArrivals = append(s.ForwardArrivals, acks[idx].pos)
	}
	return s
}

// ackRec pairs a send position (connection index) with the IPID of its
// acknowledgment.
type ackRec struct {
	pos  int
	ipid uint16
}

// ipidRanks maps each ack to the rank of its IPID (0 = smallest = sent
// first by the server), wrap-aware.
func ipidRanks(acks []ackRec) []int {
	ranks := make([]int, len(acks))
	for i := range acks {
		r := 0
		for j := range acks {
			if j != i && packet.IPIDLess(acks[j].ipid, acks[i].ipid) {
				r++
			}
		}
		ranks[i] = r
	}
	return ranks
}

// String summarizes the burst result.
func (r *BurstResult) String() string {
	f, v := r.ForwardAggregate(), r.ReverseAggregate()
	return fmt.Sprintf("burst test %s: %d trains of %d; forward %s; reverse %s",
		r.Target, len(r.Bursts), r.Options.BurstSize, f, v)
}
