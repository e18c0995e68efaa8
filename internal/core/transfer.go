package core

import (
	"slices"
	"time"

	"reorder/internal/packet"
)

// TransferOptions configures the TCP data transfer test.
type TransferOptions struct {
	// MSS is the maximum segment size advertised to the server. Clamping
	// it small yields many small data packets per object (default 256).
	MSS uint16
	// Window is the receive window advertised, bounding how many segments
	// the server keeps in flight (default 1024 = 4 segments at MSS 256).
	Window uint16
	// IdleTimeout ends the transfer when no data arrives for this long
	// (default 2s).
	IdleTimeout time.Duration
}

// The transfer test requests the server's root object and caps the
// transfer at maxSegments segments.
const (
	request     = "GET / HTTP/1.0\r\n\r\n"
	maxSegments = 512
)

func (o TransferOptions) defaults() TransferOptions {
	if o.MSS == 0 {
		o.MSS = 256
	}
	if o.Window == 0 {
		o.Window = 1024
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 2 * time.Second
	}
	return o
}

// DataTransferTest initiates a download from the target and classifies the
// arrival order of the data packets — the passive, in-situ style of
// measurement (Paxson's) the paper uses as its baseline. Only the reverse
// path (server to probe) is measurable; every sample's Forward verdict is
// VerdictUnknown.
//
// Two mitigations from the paper temper TCP's congestion-control dynamics:
// the advertised MSS and window are artificially small, and the prober
// acknowledges the largest sequence number received even across holes, so
// loss does not stall or reshape the sending pattern.
func (p *Prober) DataTransferTest(o TransferOptions) (*Result, error) {
	return fresh(p.DataTransferTestInto, o)
}

// DataTransferTestInto is DataTransferTest into caller-owned storage: res
// is overwritten completely, its Samples and Arrivals storage reused. The
// result is valid until the next probe into res; on error it is empty.
func (p *Prober) DataTransferTestInto(res *Result, o TransferOptions) error {
	o = o.defaults()
	res.begin("transfer", p.target)
	cc := defaultConnect()
	cc.mss = o.MSS
	cc.window = o.Window
	c, err := p.connect(targetPort, cc)
	if err != nil {
		return err
	}
	defer c.reset()

	p.reqBuf = append(p.reqBuf[:0], request...)
	c.sendSeg(packet.FlagACK|packet.FlagPSH, c.iss+1, c.rcvNxt, p.reqBuf, nil)

	// arrivals (first-transmission data seqs in arrival order) and seen are
	// prober-owned scratch, emptied here and bounded by maxSegments.
	if p.seen == nil {
		p.seen = make(map[uint32]bool)
	}
	clear(p.seen)
	arrivals, seen := p.arrivals[:0], p.seen
	maxEnd := c.rcvNxt
	for len(arrivals) < maxSegments {
		pkt, _, ok := c.awaitSeg(o.IdleTimeout, func(h *packet.TCPHeader) bool { return true })
		if !ok {
			break
		}
		rst := pkt.TCP.HasFlags(packet.FlagRST)
		n := uint32(len(pkt.Payload))
		seq := pkt.TCP.Seq
		p.release(pkt)
		if rst {
			break
		}
		if n == 0 {
			continue
		}
		if end := seq + n; packet.SeqGT(end, maxEnd) {
			maxEnd = end
		}
		// Acknowledge the largest byte received regardless of holes, per
		// the paper, so the server never stalls on a loss.
		c.sendSeg(packet.FlagACK, c.iss+1+uint32(len(request)), maxEnd, nil, nil)
		if seen[seq] {
			continue // retransmission: not a fresh arrival sample
		}
		seen[seq] = true
		arrivals = append(arrivals, seq)
	}
	p.arrivals = arrivals
	if len(arrivals) == 0 {
		return ErrNoData
	}

	// Each adjacent pair of first-transmission arrivals is one sample: the
	// server sent data in sequence order, so a lower sequence number
	// arriving after a higher one is an exchange.
	res.Samples = slices.Grow(res.Samples, len(arrivals)-1)
	for i := 1; i < len(arrivals); i++ {
		s := Sample{Forward: VerdictUnknown}
		if packet.SeqLT(arrivals[i], arrivals[i-1]) {
			s.Reverse = VerdictReordered
		} else {
			s.Reverse = VerdictInOrder
		}
		res.Samples = append(res.Samples, s)
	}
	res.Arrivals, p.sorted = appendArrivalPositions(res.Arrivals, p.sorted[:0], arrivals)
	return nil
}

// seqOrder orders sequence numbers as the server sent them.
func seqOrder(a, b uint32) int {
	switch {
	case packet.SeqLT(a, b):
		return -1
	case a == b:
		return 0
	}
	return 1
}

// appendArrivalPositions maps the arrival-ordered, distinct sequence
// numbers to send positions (rank by sequence, since the server transmits
// sequentially), the form the sequence metrics consume, and appends them to
// pos. sorted is scratch, returned for reuse.
func appendArrivalPositions(pos []int, sorted, seqs []uint32) ([]int, []uint32) {
	sorted = append(sorted, seqs...)
	slices.SortFunc(sorted, seqOrder)
	pos = slices.Grow(pos, len(seqs))
	for _, s := range seqs {
		rank, _ := slices.BinarySearchFunc(sorted, s, seqOrder)
		pos = append(pos, rank)
	}
	return pos, sorted
}
