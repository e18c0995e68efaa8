// Package ippm implements a cooperative one-way active measurement session
// in the style of the IETF IPPM work the paper cites ([8], the
// Morton/Ciavattone/Ramachandran reordering-metrics draft that became RFC
// 4737): a sender emits sequence-numbered, timestamped UDP test packets,
// and a receiver process running on the remote host records arrival order
// and computes the reordering metrics exactly.
//
// This methodology is the paper's §II foil: it yields precise one-way
// results but "still require[s] deployment at each endpoint measured" —
// the receiver here literally has to be registered on the simulated host
// (host.HandleUDP), whereas the paper's techniques need nothing remote.
// The cooperative experiment (E10) uses it as ground truth to validate the
// single-ended tools against.
package ippm

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/metrics"
	"reorder/internal/packet"
	"reorder/internal/sim"
	"reorder/internal/stats"
)

// port is the session receiver's UDP port.
const port = 8620

// payload layout: magic(2) seq(4) sendTimestampNanos(8).
const (
	magic       = 0x1990 // the year of RFC 1141; arbitrary but fixed
	payloadSize = 14
)

// SessionConfig describes one test stream.
type SessionConfig struct {
	// Count is the number of test packets (default 100).
	Count int
	// Gap is the inter-packet spacing (default 0: back to back).
	Gap time.Duration
	// Drain bounds the wait for in-flight packets after the last send
	// (default 2s).
	Drain time.Duration
}

func (c SessionConfig) defaults() SessionConfig {
	if c.Count == 0 {
		c.Count = 100
	}
	if c.Drain == 0 {
		c.Drain = 2 * time.Second
	}
	return c
}

// Receiver is the remote-side process: register its Handle method with the
// host. It records arrivals and one-way delays.
type Receiver struct {
	clock    *sim.Loop
	arrivals []int
	delays   []float64 // seconds; virtual clocks are perfectly synchronized
	seen     map[uint32]bool
}

// NewReceiver returns a receiver reading timestamps from the shared
// virtual clock. (A real deployment needs synchronized clocks — another
// operational cost of the cooperative methodology.)
func NewReceiver(clock *sim.Loop) *Receiver {
	return &Receiver{clock: clock, seen: make(map[uint32]bool)}
}

// Handle is the host.HandleUDP callback.
func (r *Receiver) Handle(p *packet.Packet) {
	if len(p.Payload) < payloadSize {
		return
	}
	if binary.BigEndian.Uint16(p.Payload[0:2]) != magic {
		return
	}
	seq := binary.BigEndian.Uint32(p.Payload[2:6])
	if r.seen[seq] {
		return // duplicate
	}
	r.seen[seq] = true
	sentAt := sim.Time(binary.BigEndian.Uint64(p.Payload[6:14]))
	r.arrivals = append(r.arrivals, int(seq))
	r.delays = append(r.delays, r.clock.Now().Sub(sentAt).Seconds())
}

// Report is the receiver-side analysis of one session.
type Report struct {
	Sent, Received int
	// Metrics are the exact sequence metrics over the arrival order.
	Metrics *metrics.Report
	// Delay summarizes the one-way delays in seconds.
	Delay stats.Summary
}

// String renders the report on one line.
func (r *Report) String() string {
	return fmt.Sprintf("ippm: %d/%d received; %v; one-way delay mean %.3fms",
		r.Received, r.Sent, r.Metrics, r.Delay.Mean*1e3)
}

// RunSession sends the test stream through the transport to target and
// returns the receiver-side report. The receiver must already be
// registered on the remote host (see Attach).
func RunSession(tp core.Transport, target netip.Addr, recv *Receiver, cfg SessionConfig) (*Report, error) {
	cfg = cfg.defaults()
	for i := 0; i < cfg.Count; i++ {
		if i > 0 && cfg.Gap > 0 {
			tp.Sleep(cfg.Gap)
		}
		if err := sendOne(tp, target, uint32(i)); err != nil {
			return nil, err
		}
	}
	tp.Sleep(cfg.Drain)
	return &Report{
		Sent:     cfg.Count,
		Received: len(recv.arrivals),
		Metrics:  metrics.Analyze(recv.arrivals),
		Delay:    stats.Summarize(recv.delays),
	}, nil
}

func sendOne(tp core.Transport, dst netip.Addr, seq uint32) error {
	payload := make([]byte, payloadSize)
	binary.BigEndian.PutUint16(payload[0:2], magic)
	binary.BigEndian.PutUint32(payload[2:6], seq)
	binary.BigEndian.PutUint64(payload[6:14], uint64(tp.Now()))
	raw, err := packet.EncodeUDP(&packet.IPv4Header{
		Src: tp.LocalAddr(),
		Dst: dst,
	}, &packet.UDPHeader{SrcPort: 41999, DstPort: port}, payload)
	if err != nil {
		return err
	}
	tp.Send(raw)
	return nil
}

// Attach registers a fresh receiver on the host for the session port and
// returns it — the "deploy software at the remote endpoint" step.
func Attach(h *host.Host, clock *sim.Loop) *Receiver {
	r := NewReceiver(clock)
	h.HandleUDP(port, r.Handle)
	return r
}
