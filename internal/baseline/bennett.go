// Package baseline implements the two prior measurement methodologies the
// paper positions itself against (§II): Bennett et al.'s ICMP echo-burst
// probing with its burst-reordering and SACK-block metrics, and Paxson's
// passive TCP trace analysis. They exist both as comparators for the
// experiments and as working demonstrations of the biases the paper
// identifies — ICMP's direction ambiguity and rate limiting, and the
// TCP-dynamics dependence of passive transfer analysis.
package baseline

import (
	"errors"
	"net/netip"
	"time"

	"reorder/internal/core"
	"reorder/internal/packet"
)

// ErrNoReplies means the target answered no echo requests (filtered or
// rate-limited away) — the deployment problem §II notes for ICMP probing.
var ErrNoReplies = errors.New("baseline: no ICMP echo replies")

// BennettOptions configures the ICMP echo-burst test.
type BennettOptions struct {
	// Bursts is the number of bursts to send (default 10).
	Bursts int
	// BurstSize is the number of echo requests per burst (the paper's
	// reference uses 5 small or 100 large packets; default 5).
	BurstSize int
	// PayloadSize is the ICMP payload length in bytes; 28 yields the
	// 56-byte IP packets of Bennett's small-burst experiment (default 28).
	PayloadSize int
	// ReplyTimeout bounds the wait for each burst's replies (default 1s).
	ReplyTimeout time.Duration
}

// pace is the idle time between bursts.
const pace = 10 * time.Millisecond

func (o BennettOptions) defaults() BennettOptions {
	if o.Bursts == 0 {
		o.Bursts = 10
	}
	if o.BurstSize == 0 {
		o.BurstSize = 5
	}
	if o.PayloadSize == 0 {
		o.PayloadSize = 28
	}
	if o.ReplyTimeout == 0 {
		o.ReplyTimeout = time.Second
	}
	return o
}

// BurstResult is the outcome of one echo burst.
type BurstResult struct {
	// Sent and Received count the burst's requests and distinct replies.
	Sent, Received int
	// Exchanges counts adjacent arrival pairs whose echo sequence numbers
	// were exchanged relative to send order.
	Exchanges int
	// SACKBlocks is Bennett's synthetic metric: the maximum number of
	// SACK blocks a TCP receiver would have needed at any instant to
	// describe the out-of-order arrival pattern of this burst.
	SACKBlocks int
}

// Reordered reports whether the burst saw at least one exchange — the
// statistic Bennett et al. report per burst.
func (b BurstResult) Reordered() bool { return b.Exchanges > 0 }

// BennettResult aggregates the burst outcomes for one target.
type BennettResult struct {
	Target netip.Addr
	Bursts []BurstResult
}

// FractionReordered returns the fraction of bursts with at least one
// reordering event (Bennett's headline ">90% of bursts" number). Bursts
// with fewer than two replies cannot exhibit reordering and count as clean.
func (r *BennettResult) FractionReordered() float64 {
	if len(r.Bursts) == 0 {
		return 0
	}
	n := 0
	for _, b := range r.Bursts {
		if b.Reordered() {
			n++
		}
	}
	return float64(n) / float64(len(r.Bursts))
}

// BennettTest sends bursts of ICMP echo requests and evaluates the order of
// the replies. Note the methodology's inherent limitation, which this
// implementation faithfully reproduces: a reordering on the forward path is
// indistinguishable from one on the reverse path, so results conflate both
// directions (§II).
func BennettTest(tp core.Transport, target netip.Addr, o BennettOptions) (*BennettResult, error) {
	o = o.defaults()
	res := &BennettResult{Target: target}
	ident := uint16(0xbe77)
	anyReply := false
	for b := 0; b < o.Bursts; b++ {
		br := sendBurst(tp, target, ident, uint16(b*o.BurstSize), o)
		if br.Received > 0 {
			anyReply = true
		}
		res.Bursts = append(res.Bursts, br)
		tp.Sleep(pace)
	}
	if !anyReply {
		return nil, ErrNoReplies
	}
	return res, nil
}

func sendBurst(tp core.Transport, target netip.Addr, ident, seqBase uint16, o BennettOptions) BurstResult {
	br := BurstResult{Sent: o.BurstSize}
	payload := make([]byte, o.PayloadSize)
	for i := 0; i < o.BurstSize; i++ {
		echo := &packet.ICMPEcho{
			Type: packet.ICMPEchoRequest, Ident: ident, Seq: seqBase + uint16(i),
			Payload: payload,
		}
		raw, err := packet.AppendICMP(nil, &packet.IPv4Header{Src: tp.LocalAddr(), Dst: target}, echo)
		if err != nil {
			return br
		}
		tp.Send(raw)
	}

	// Collect replies until the timeout, recording arrival order of the
	// sequence numbers.
	var arrivals []int
	seen := map[uint16]bool{}
	deadline := tp.Now().Add(o.ReplyTimeout)
	for len(arrivals) < o.BurstSize {
		remaining := deadline.Sub(tp.Now())
		if remaining <= 0 {
			break
		}
		data, _, ok := tp.Recv(remaining)
		if !ok {
			break
		}
		p, err := packet.Decode(data)
		if err != nil || p.ICMP == nil || p.ICMP.Type != packet.ICMPEchoReply {
			continue
		}
		if p.IP.Src != target || p.ICMP.Ident != ident {
			continue
		}
		off := int(p.ICMP.Seq - seqBase)
		if off < 0 || off >= o.BurstSize || seen[p.ICMP.Seq] {
			continue
		}
		seen[p.ICMP.Seq] = true
		arrivals = append(arrivals, off)
	}
	br.Received = len(arrivals)
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			br.Exchanges++
		}
	}
	br.SACKBlocks = maxSACKBlocks(arrivals)
	return br
}

// maxSACKBlocks simulates a TCP receiver consuming "segments" in the given
// arrival order (each index one segment) and returns the maximum number of
// disjoint above-cumulative islands that coexisted — the number of SACK
// blocks that receiver would have reported at its worst moment.
func maxSACKBlocks(arrivals []int) int {
	have := map[int]bool{}
	next := 0 // cumulative point
	maxIslands := 0
	for _, a := range arrivals {
		have[a] = true
		for have[next] {
			next++
		}
		// Count islands above the cumulative point.
		islands, in := 0, false
		for i := next; i <= maxIndex(have); i++ {
			if have[i] && !in {
				islands++
				in = true
			} else if !have[i] {
				in = false
			}
		}
		if islands > maxIslands {
			maxIslands = islands
		}
	}
	return maxIslands
}

func maxIndex(have map[int]bool) int {
	m := -1
	for i := range have {
		if i > m {
			m = i
		}
	}
	return m
}
