// Package tcpsender implements a client-side TCP bulk-data sender with
// Reno-style congestion control — the protocol the paper's introduction is
// about. Its fast-retransmit optimization "assumes that packet reordering
// is sufficiently rare that any reordering event spanning more than a few
// packets implies a loss"; when that assumption fails, reordering is
// misread as congestion and throughput collapses. The sender also
// implements an adaptive duplicate-ACK threshold in the spirit of the
// proposals the paper cites ([3] Blanton & Allman; [20] DSACK-based
// schemes), whose evaluation is exactly what the paper's measurement
// techniques exist to enable.
//
// The sender is event-driven on a sim.Loop, speaks real packets through a
// netem.Node, and is exercised against the same server stack the
// measurement tools probe — so the reordering processes measured by
// internal/core are the ones degrading it.
package tcpsender

import (
	"net/netip"
	"time"

	"reorder/internal/netem"
	"reorder/internal/packet"
	"reorder/internal/sim"
)

// Config tunes the sender.
type Config struct {
	// Bytes is the amount of application data to transfer.
	Bytes int
	// Adaptive enables the reordering-tolerant behaviour: when a fast
	// retransmission is detected to have been spurious (the cumulative
	// acknowledgment covering it arrives sooner after the retransmission
	// than a network round trip allows), the duplicate-ACK threshold is
	// raised by one, up to maxDupThresh.
	Adaptive bool
	// RTO is the initial retransmission timeout (default 1s; doubled on
	// each back-to-back expiry).
	RTO time.Duration
}

// The sender's fixed parameters: a 1460-byte segment, Reno's initial
// duplicate-ACK threshold of 3 (at most 12 when adaptive), an initial
// window of two segments, and a transfer from a fixed local port to the
// server's port 80.
const (
	mss          = 1460
	dupThresh    = 3
	maxDupThresh = 12
	initialCwnd  = 2
	localPort    = 41000
	remotePort   = 80
)

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Bytes == 0 {
		c.Bytes = 256 << 10
	}
	if c.RTO == 0 {
		c.RTO = time.Second
	}
	return c
}

// Stats summarizes a completed (or in-progress) transfer.
type Stats struct {
	BytesAcked int
	Elapsed    time.Duration
	// FastRetransmits counts dupthresh-triggered retransmissions;
	// SpuriousFast of those were detected as reordering, not loss.
	FastRetransmits int
	SpuriousFast    int
	// Timeouts counts RTO expirations.
	Timeouts int
	// FinalDupThresh is the threshold at the end (changes under Adaptive).
	FinalDupThresh int
	// CwndHalvings counts multiplicative decreases (fast retransmit and
	// timeout), the throughput-relevant damage reordering inflicts.
	CwndHalvings int
}

// Throughput returns the goodput in bits per second.
func (s Stats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.BytesAcked) * 8 / s.Elapsed.Seconds()
}

type state int

const (
	stateClosed state = iota
	stateSynSent
	stateEstablished
	stateDone
)

// Sender is one bulk transfer in progress.
type Sender struct {
	cfg    Config
	loop   *sim.Loop
	local  netip.Addr
	remote netip.Addr
	out    netem.Node
	ids    *netem.FrameIDs
	rng    *sim.Rand

	st     state
	iss    uint32
	rcvNxt uint32
	sndUna uint32
	sndNxt uint32
	end    uint32 // one past the last byte to send

	cwnd      int // bytes
	ssthresh  int
	peerWnd   int
	dupThresh int
	dupAcks   int

	inRecovery bool
	recover    uint32 // NewReno recovery point

	rtoTimer   sim.Timer
	rtoBackoff time.Duration

	// Per-connection scratch: decoded-packet cell and optional arena, so
	// steady-state transmission and receive do not allocate per segment.
	arena *netem.Arena
	rxPkt packet.Packet

	// Spurious-retransmit detection state.
	minRTT time.Duration
	// sendTimes holds the first-transmission time of every segment not yet
	// cumulatively acknowledged, in sequence order: entries are only ever
	// pushed at sndNxt, which never retreats, so the oldest is at the front
	// and an acknowledgment retires a prefix.
	sendTimes    sim.Queue[sentAt]
	lastRexmitAt sim.Time
	lastRexmit   uint32
	rexmitLive   bool

	started  sim.Time
	finished sim.Time
	stats    Stats
}

// sentAt records when the segment starting at seq was first transmitted.
type sentAt struct {
	seq uint32
	at  sim.Time
}

// New builds a sender from local to remote:80, transmitting via out.
func New(loop *sim.Loop, cfg Config, local, remote netip.Addr, ids *netem.FrameIDs, rng *sim.Rand, out netem.Node) *Sender {
	s := &Sender{loop: loop, ids: ids}
	s.Reset(cfg, local, remote, rng, out)
	return s
}

// Reset returns the sender to a closed connection for cfg, keeping its
// loop, frame IDs, arena, scratch buffers and send-times storage; New ends by calling it, and scenario owners reuse
// cross-traffic senders across topology rebuilds through it. The caller
// must have Reset the shared loop first (which invalidates any pending RTO
// timer; the zero Timer left here is inert).
func (s *Sender) Reset(cfg Config, local, remote netip.Addr, rng *sim.Rand, out netem.Node) {
	sendTimes := s.sendTimes
	sendTimes.Reset()
	*s = Sender{
		cfg: cfg.Defaults(), loop: s.loop, local: local, remote: remote,
		out: out, ids: s.ids, rng: rng, arena: s.arena, rxPkt: s.rxPkt,
		dupThresh: dupThresh,
		minRTT:    time.Hour, // until measured
		sendTimes: sendTimes,
	}
}

// SetArena directs the sender to allocate transmitted datagrams and frames
// from a. A nil arena (the default) falls back to the garbage collector.
func (s *Sender) SetArena(a *netem.Arena) { s.arena = a }

// SetOutput sets the forward-path entry the sender transmits into. It
// exists because simnet.AttachEndpoint needs the sender (as the reverse
// path's terminal) before it can hand back the forward entry; call it
// before Start.
func (s *Sender) SetOutput(out netem.Node) { s.out = out }

// Done reports whether the transfer completed.
func (s *Sender) Done() bool { return s.st == stateDone }

// Stats returns a snapshot; Elapsed covers handshake through the final ACK
// (or the present, if unfinished).
func (s *Sender) Stats() Stats {
	st := s.stats
	if s.st != stateClosed && packet.SeqGT(s.sndUna, s.iss) {
		st.BytesAcked = int(s.sndUna - (s.iss + 1))
	}
	endAt := s.finished
	if s.st != stateDone {
		endAt = s.loop.Now()
	}
	st.Elapsed = endAt.Sub(s.started)
	st.FinalDupThresh = s.dupThresh
	return st
}

// Start opens the connection and begins transmitting.
func (s *Sender) Start() {
	if s.st != stateClosed {
		return
	}
	s.iss = s.rng.Uint32()
	s.sndUna = s.iss
	s.sndNxt = s.iss + 1
	s.end = s.iss + 1 + uint32(s.cfg.Bytes)
	s.cwnd = initialCwnd * mss
	s.ssthresh = 64 << 10
	s.peerWnd = 65535
	s.rtoBackoff = s.cfg.RTO
	s.started = s.loop.Now()
	s.st = stateSynSent
	s.transmit(packet.FlagSYN, s.iss, 0, nil, []packet.TCPOption{packet.MSSOption(mss)})
	s.armRTO()
}

// Input implements netem.Node: packets from the network. Frames carrying a
// decoded view are consumed without a decode; byte-form frames fall back to
// a scratch DecodeInto (no per-frame allocation either way).
func (s *Sender) Input(f *netem.Frame) {
	p := &s.rxPkt
	if v := f.View(); v != nil {
		if v.IP.Protocol != packet.ProtoTCP {
			return
		}
		v.ToPacket(p)
	} else if err := packet.DecodeInto(p, f.Data); err != nil || p.TCP == nil {
		return
	}
	if p.IP.Dst != s.local || p.IP.Src != s.remote {
		return
	}
	h := p.TCP
	if h.SrcPort != remotePort || h.DstPort != localPort {
		return
	}
	switch s.st {
	case stateSynSent:
		if h.HasFlags(packet.FlagRST) {
			// Connection refused: freeze as done with nothing transferred.
			s.st = stateDone
			s.finished = s.loop.Now()
			s.stopRTO()
			return
		}
		if h.HasFlags(packet.FlagSYN|packet.FlagACK) && h.Ack == s.iss+1 {
			s.rcvNxt = h.Seq + 1
			s.sndUna = s.iss + 1
			s.st = stateEstablished
			s.observeRTT(s.loop.Now().Sub(s.started))
			s.transmit(packet.FlagACK, s.sndUna, s.rcvNxt, nil, nil)
			s.trySend()
		}
	case stateEstablished:
		if h.HasFlags(packet.FlagRST) {
			s.st = stateDone // aborted; stats freeze where they are
			s.finished = s.loop.Now()
			s.stopRTO()
			return
		}
		if h.HasFlags(packet.FlagACK) {
			s.handleAck(h)
		}
	}
}

func (s *Sender) handleAck(h *packet.TCPHeader) {
	s.peerWnd = int(h.Window)
	switch {
	case packet.SeqGT(h.Ack, s.sndUna) && packet.SeqLEQ(h.Ack, s.sndNxt):
		s.newAck(h.Ack)
	case h.Ack == s.sndUna && packet.SeqGT(s.sndNxt, s.sndUna):
		s.duplicateAck()
	}
	s.trySend()
	if s.sndUna == s.end && s.st == stateEstablished {
		s.st = stateDone
		s.finished = s.loop.Now()
		s.stopRTO()
	}
}

// newAck processes a cumulative advance.
func (s *Sender) newAck(ack uint32) {
	acked := int(ack - s.sndUna)

	// RTT sample from a first-transmission segment (Karn's rule: skip
	// anything retransmitted). Every recorded segment below sndUna was
	// retired by an earlier ACK, so the segment starting at sndUna is
	// recorded exactly when it is the oldest entry.
	if s.sendTimes.Len() > 0 {
		if first := s.sendTimes.Front(); first.seq == s.sndUna &&
			(!s.rexmitLive || packet.SeqLT(s.sndUna, s.lastRexmit)) {
			s.observeRTT(s.loop.Now().Sub(first.at))
		}
	}
	for s.sendTimes.Len() > 0 && packet.SeqLT(s.sendTimes.Front().seq, ack) {
		s.sendTimes.Pop()
	}

	// Spurious fast-retransmit detection: the ACK covering the
	// retransmitted segment arrived sooner after the retransmission than
	// a round trip — the original, merely reordered, must have produced
	// it (the detection heuristic of the adaptive schemes).
	if s.rexmitLive && packet.SeqGT(ack, s.lastRexmit) {
		if s.loop.Now().Sub(s.lastRexmitAt) < s.minRTT*9/10 {
			s.stats.SpuriousFast++
			if s.cfg.Adaptive && s.dupThresh < maxDupThresh {
				s.dupThresh++
			}
		}
		s.rexmitLive = false
	}

	s.sndUna = ack
	s.dupAcks = 0
	s.rtoBackoff = s.cfg.RTO
	if s.inRecovery {
		if packet.SeqGEQ(ack, s.recover) {
			// Full recovery: deflate to ssthresh.
			s.inRecovery = false
			s.cwnd = s.ssthresh
		} else {
			// NewReno partial ACK: retransmit the next hole, stay in
			// recovery.
			s.retransmitOne()
			return
		}
	} else {
		// Normal growth: slow start below ssthresh, else congestion
		// avoidance.
		if s.cwnd < s.ssthresh {
			s.cwnd += min(acked, mss)
		} else {
			s.cwnd += max(1, mss*mss/s.cwnd)
		}
	}
	if packet.SeqLT(s.sndUna, s.sndNxt) {
		s.armRTO()
	} else {
		s.stopRTO()
	}
}

// duplicateAck counts dupacks and triggers fast retransmit at the
// threshold — the paper's central protocol mechanism.
func (s *Sender) duplicateAck() {
	s.dupAcks++
	if s.inRecovery {
		s.cwnd += mss // inflation
		return
	}
	if s.dupAcks < s.dupThresh {
		return
	}
	// Fast retransmit + fast recovery.
	s.stats.FastRetransmits++
	s.stats.CwndHalvings++
	flight := int(s.sndNxt - s.sndUna)
	s.ssthresh = max(flight/2, 2*mss)
	s.cwnd = s.ssthresh + 3*mss
	s.inRecovery = true
	s.recover = s.sndNxt
	s.lastRexmit = s.sndUna
	s.lastRexmitAt = s.loop.Now()
	s.rexmitLive = true
	s.retransmitOne()
	s.armRTO()
}

// retransmitOne resends the segment at sndUna.
func (s *Sender) retransmitOne() {
	n := uint32(mss)
	if rem := s.end - s.sndUna; rem < n {
		n = rem
	}
	if n == 0 {
		return
	}
	s.sendData(s.sndUna, n)
}

// onRTO handles a retransmission timeout: collapse to slow start.
func (s *Sender) onRTO() {
	if s.st != stateEstablished || s.sndUna == s.end {
		return
	}
	s.stats.Timeouts++
	s.stats.CwndHalvings++
	flight := int(s.sndNxt - s.sndUna)
	s.ssthresh = max(flight/2, 2*mss)
	s.cwnd = mss
	s.dupAcks = 0
	s.inRecovery = false
	s.rexmitLive = false
	s.retransmitOne()
	s.rtoBackoff *= 2
	if s.rtoBackoff > time.Minute {
		s.rtoBackoff = time.Minute
	}
	s.armRTO()
}

// trySend transmits new data permitted by the congestion and peer windows.
func (s *Sender) trySend() {
	if s.st != stateEstablished {
		return
	}
	wnd := min(s.cwnd, s.peerWnd)
	for packet.SeqLT(s.sndNxt, s.end) {
		flight := int(s.sndNxt - s.sndUna)
		if flight+mss > wnd && flight > 0 {
			break
		}
		n := uint32(mss)
		if rem := s.end - s.sndNxt; rem < n {
			n = rem
		}
		s.sendTimes.Push(sentAt{seq: s.sndNxt, at: s.loop.Now()})
		s.sendData(s.sndNxt, n)
		s.sndNxt += n
	}
	if packet.SeqLT(s.sndUna, s.sndNxt) && !s.rtoTimer.Pending() {
		s.armRTO()
	}
}

// sendData transmits payload bytes [seq, seq+n). Content avoids '\n' so
// the receiving stack's request-triggered application stays dormant.
func (s *Sender) sendData(seq, n uint32) {
	s.transmit(packet.FlagACK|packet.FlagPSH, seq, s.rcvNxt, pattern.Slice(seq, n), nil)
}

// pattern is the payload byte stream, 'a' + q%25 at sequence number q. It
// holds no '\n', which would wake the receiving stack's application.
var pattern = netem.NewPayloadTable('a', 25)

// transmit sends one segment. payload is nil or a slice of pattern, which
// nothing ever writes, so the frame shares it instead of copying it.
func (s *Sender) transmit(flags uint8, seq, ack uint32, payload []byte, opts []packet.TCPOption) {
	hdr := &packet.TCPHeader{
		SrcPort: localPort, DstPort: remotePort,
		Seq: seq, Ack: ack, Flags: flags, Window: 65535, Options: opts,
	}
	ip := &packet.IPv4Header{Src: s.local, Dst: s.remote, ID: s.rng.Uint16(), Flags: packet.FlagDF}
	f, err := s.arena.NewTCPFrameShared(s.ids.Next(), s.loop.Now(), ip, hdr, payload)
	if err != nil {
		panic("tcpsender: encode: " + err.Error())
	}
	s.out.Input(f)
}

func (s *Sender) observeRTT(rtt time.Duration) {
	if rtt > 0 && rtt < s.minRTT {
		s.minRTT = rtt
	}
}

// armRTO (re)starts the retransmission timer. Reschedule re-sifts the
// pending event in place — the pop-then-push pattern every cumulative ACK
// hits — instead of lazily cancelling and pushing a replacement.
func (s *Sender) armRTO() {
	s.rtoTimer = s.loop.RescheduleArg(s.rtoTimer, s.loop.Now().Add(s.rtoBackoff), fireRTO, s)
}

// fireRTO is the retransmission timer's callback; its arg is the sender.
func fireRTO(s any) { s.(*Sender).onRTO() }

func (s *Sender) stopRTO() {
	s.rtoTimer.Stop()
}
