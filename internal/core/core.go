// Package core implements the paper's contribution: active, single-ended
// measurement techniques that estimate one-way packet reordering rates in
// both directions between a probe host and an arbitrary TCP server, plus
// the packet-pair exchange metric and its parameterization by inter-packet
// gap (the time-domain distribution of §IV-C).
//
// Four techniques are provided, mirroring §III of the paper:
//
//   - SingleConnectionTest: sequence-hole preparation and straddling sample
//     packets on one established connection. Measures both directions; the
//     reversed-send variant sidesteps delayed acknowledgments.
//   - DualConnectionTest: out-of-window probes on two parallel connections,
//     using the remote host's IPID stream to recover receive order. Requires
//     ValidateIPID to pass; defeated by load balancers and random/zero IPIDs.
//   - SYNTest: paired SYNs differing only in sequence number, which per-flow
//     load balancers must deliver to the same backend.
//   - DataTransferTest: a clamped-MSS/window download measuring reverse-path
//     reordering only (the in-situ baseline the paper compares against).
//
// The Prober drives any FrameTransport — the simulated network's probe NIC,
// or a raw-socket implementation on a live system — and returns per-sample
// verdicts plus the frame IDs needed to check results against ground-truth
// captures.
package core

import (
	"net/netip"
	"time"

	"reorder/internal/metrics"
	"reorder/internal/netem"
	"reorder/internal/packet"
	"reorder/internal/sim"
)

// Transport is the probe host's raw-packet interface (what sting obtained
// with packet filters and firewall rules). The simulated probe NIC
// (internal/simnet) implements it. The non-TCP tools that craft their own
// datagrams (baseline.BennettTest, ippm.RunSession) use it; the Prober uses
// FrameTransport.
type Transport interface {
	// LocalAddr is the probe's source address.
	LocalAddr() netip.Addr
	// Send injects one raw IPv4 datagram, returning an opaque frame ID
	// that ground-truth captures can key on (zero if untracked). The
	// transport must not retain data past the call (it copies if it needs
	// to): the prober reuses one encode buffer for every packet it sends.
	Send(data []byte) uint64
	// Recv returns the next datagram addressed to the probe and its frame
	// ID (zero if untracked), waiting up to timeout. ok is false on
	// timeout.
	Recv(timeout time.Duration) (data []byte, frameID uint64, ok bool)
	// Sleep advances time by d (virtual or real), used to space sample
	// packets by a configured gap.
	Sleep(d time.Duration)
	// Now returns the transport's notion of current time.
	Now() sim.Time
}

// FrameTransport is the Transport the Prober drives: datagrams cross it as
// parsed headers going out and as frames coming in. The simulated probe NIC
// carries both in decoded form, so a probe never runs the codec on a
// segment it sends, nor on one that arrives with a view. It is the seam a
// live raw-socket backend plugs into: that backend encodes in SendView and
// returns view-less frames from RecvFrame, which the prober decodes.
type FrameTransport interface {
	Transport
	// SendView injects one IPv4+TCP datagram given as parsed headers plus
	// payload, returning the frame ID exactly as Send would for the
	// encoded equivalent. The transport copies what it keeps; the caller
	// may reuse ip, tcp and payload immediately.
	SendView(ip *packet.IPv4Header, tcp *packet.TCPHeader, payload []byte) uint64
	// RecvFrame is Recv returning the frame itself; a frame with an
	// attached view needs no decoding at all, one without is decoded from
	// its wire bytes.
	RecvFrame(timeout time.Duration) (*netem.Frame, bool)
}

// Verdict classifies one direction of one sample.
type Verdict int

const (
	// VerdictUnknown means the test cannot speak to this direction (e.g.
	// the data transfer test's forward direction).
	VerdictUnknown Verdict = iota
	// VerdictInOrder means the pair was delivered in transmission order.
	VerdictInOrder
	// VerdictReordered means the pair was exchanged in flight.
	VerdictReordered
	// VerdictLost means a sample packet or reply was lost; the sample is
	// discarded from rate computations.
	VerdictLost
	// VerdictAmbiguous means the replies were inconsistent with any single
	// loss-free ordering (§III-B's "lone ack 4").
	VerdictAmbiguous
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case VerdictUnknown:
		return "unknown"
	case VerdictInOrder:
		return "in-order"
	case VerdictReordered:
		return "reordered"
	case VerdictLost:
		return "lost"
	case VerdictAmbiguous:
		return "ambiguous"
	default:
		return "invalid"
	}
}

// Valid reports whether the verdict contributes to a reordering rate.
func (v Verdict) Valid() bool { return v == VerdictInOrder || v == VerdictReordered }

// Sample is one packet-pair measurement.
type Sample struct {
	// Forward and Reverse are the per-direction classifications.
	Forward, Reverse Verdict
	// SentIDs are the frame IDs of the two sample packets in send order,
	// for ground-truth validation.
	SentIDs [2]uint64
	// ReplyIDs are the frame IDs of the two reply packets in arrival
	// order (zero when fewer than two replies arrived). Comparing their
	// order at the server-egress capture against this arrival order
	// yields reverse-path ground truth.
	ReplyIDs [2]uint64
	// Gap is the spacing inserted between the sample packets.
	Gap time.Duration
	// ReplyIPIDs are the IPIDs of the two replies in arrival order (dual
	// connection test only).
	ReplyIPIDs [2]uint16
	// RTT is the delay from sending the first sample packet to receiving
	// the first reply (zero when no reply arrived).
	RTT time.Duration
}

// DirCount aggregates one direction across samples.
type DirCount struct {
	InOrder, Reordered, Discarded int
}

// Valid returns the number of samples contributing to the rate.
func (d DirCount) Valid() int { return d.InOrder + d.Reordered }

// Rate returns the reordering probability estimate, or 0 if no sample was
// valid.
func (d DirCount) Rate() float64 {
	if d.Valid() == 0 {
		return 0
	}
	return float64(d.Reordered) / float64(d.Valid())
}

// Result is the outcome of one measurement (one run of one technique).
type Result struct {
	// Test names the technique ("single", "dual", "syn", "transfer").
	Test string
	// Target is the measured server address.
	Target netip.Addr
	// Samples holds the per-pair classifications.
	Samples []Sample
	// Arrivals, for the data transfer test only, holds the send positions
	// of the data segments in arrival order, ready for sequence-metric
	// analysis (SequenceMetrics).
	Arrivals []int
}

// Forward aggregates the forward-direction verdicts.
func (r *Result) Forward() DirCount { return r.count(func(s Sample) Verdict { return s.Forward }) }

// Reverse aggregates the reverse-direction verdicts.
func (r *Result) Reverse() DirCount { return r.count(func(s Sample) Verdict { return s.Reverse }) }

func (r *Result) count(dir func(Sample) Verdict) DirCount {
	var d DirCount
	for _, s := range r.Samples {
		switch dir(s) {
		case VerdictInOrder:
			d.InOrder++
		case VerdictReordered:
			d.Reordered++
		case VerdictLost, VerdictAmbiguous:
			d.Discarded++
		}
	}
	return d
}

// SequenceMetrics analyzes the transfer test's arrival sequence with the
// IPPM-style metrics (reordered ratio, extents, n-reordering). It returns
// nil for tests that do not produce an arrival sequence.
func (r *Result) SequenceMetrics() *metrics.Report { return r.SequenceMetricsInto(new(metrics.Report)) }

// SequenceMetricsInto is SequenceMetrics into caller-owned storage: rep is
// overwritten and returned (nil, rep untouched, when there is no arrival
// sequence), valid until rep's next use.
func (r *Result) SequenceMetricsInto(rep *metrics.Report) *metrics.Report {
	if len(r.Arrivals) == 0 {
		return nil
	}
	return metrics.AnalyzeInto(rep, r.Arrivals)
}

// begin overwrites r as the empty result of one run of test against
// target, keeping the Samples and Arrivals storage for the run to fill.
func (r *Result) begin(test string, target netip.Addr) {
	*r = Result{Test: test, Target: target, Samples: r.Samples[:0], Arrivals: r.Arrivals[:0]}
}

// fresh runs a storage-taking technique into a new Result — the allocating
// form of every test, whose result is the caller's for good.
func fresh[O any](into func(*Result, O) error, o O) (*Result, error) {
	res := new(Result)
	if err := into(res, o); err != nil {
		return nil, err
	}
	return res, nil
}

// MeanRTT returns the mean round-trip time over samples that measured one.
func (r *Result) MeanRTT() time.Duration {
	var sum time.Duration
	n := 0
	for _, s := range r.Samples {
		if s.RTT > 0 {
			sum += s.RTT
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// AnyReordering reports whether any valid sample in either direction was
// reordered (the "measurements with at least one reordered sample" statistic
// of §IV-B).
func (r *Result) AnyReordering() bool {
	for _, s := range r.Samples {
		if s.Forward == VerdictReordered || s.Reverse == VerdictReordered {
			return true
		}
	}
	return false
}
