// Package tcpstack models the remote host's TCP implementation — the "de
// facto measurement server" the paper's techniques turn any TCP service
// into. It implements precisely the behaviours the tests leverage:
//
//   - the three-way handshake, including the configurable response to a
//     second SYN on a half-open connection (SYN test, §III-D);
//   - delayed acknowledgments with a segment threshold and timeout, the
//     behaviour that complicates the single connection test (§III-B);
//   - immediate duplicate ACKs for out-of-order segments and immediate ACKs
//     when a segment fills a sequence hole (RFC 5681), which both the single
//     and dual connection tests depend on;
//   - SACK block generation for out-of-order data;
//   - IPID stamping of every transmitted datagram via a pluggable policy
//     (dual connection test, §III-C);
//   - a minimal data-serving application (a stand-in web server) with
//     peer-MSS/window-respecting transmission and go-back-N retransmission,
//     used by the TCP data transfer test.
//
// The stack is event-driven on a sim.Loop and emits raw encoded datagrams to
// a netem.Node, so everything it sends crosses the simulated network as real
// octets.
package tcpstack

import (
	"time"

	"reorder/internal/ipid"
	"reorder/internal/netem"
	"reorder/internal/packet"
	"reorder/internal/sim"

	"net/netip"
)

// SYNPolicy selects how the stack responds to a second SYN received in
// SYN_RECV with a different sequence number (§III-D: "this portion of the
// TCP specification is poorly understood").
type SYNPolicy int

const (
	// SYNPolicyRST always answers the second SYN with a RST — the most
	// common implementation behaviour the paper observed.
	SYNPolicyRST SYNPolicy = iota
	// SYNPolicySpec follows the specification: RST if the new sequence
	// number is inside the allowable window, otherwise a pure ACK
	// (challenge ACK) reflecting the original state.
	SYNPolicySpec
	// SYNPolicyDualRST sends two RSTs, a quirk of a few implementations.
	SYNPolicyDualRST
	// SYNPolicyIgnore silently drops the second SYN, leaving only the
	// original SYN/ACK observable.
	SYNPolicyIgnore
)

// String returns the policy name.
func (p SYNPolicy) String() string {
	switch p {
	case SYNPolicyRST:
		return "rst-always"
	case SYNPolicySpec:
		return "per-spec"
	case SYNPolicyDualRST:
		return "dual-rst"
	case SYNPolicyIgnore:
		return "ignore"
	default:
		return "unknown"
	}
}

// Config holds the implementation knobs of a simulated stack. The zero
// value, passed through Defaults, models a typical BSD-derived server.
type Config struct {
	// DelAckThreshold is the number of unacknowledged in-order segments
	// that forces an ACK (commonly 2). 1 disables delayed ACKs.
	DelAckThreshold int
	// DelAckTimeout bounds how long an ACK may be delayed (spec max 500ms;
	// common stacks use 100–200ms).
	DelAckTimeout time.Duration
	// SYNPolicy is the second-SYN response behaviour.
	SYNPolicy SYNPolicy
	// SACK enables SACK block generation on ACKs for out-of-order data.
	SACK bool
	// MSS caps the segment size this stack transmits.
	MSS uint16
	// RTO is the (fixed) retransmission timeout of the data server.
	RTO time.Duration
	// ObjectSize is the number of payload bytes the data-serving app sends
	// when a request arrives on a listening port.
	ObjectSize int
	// SilentClosedPorts suppresses the RST normally sent in answer to
	// segments addressed to non-listening ports (a firewalled host). The
	// zero value — answer with RST, per RFC 793 — is what live hosts do
	// and what the prober's cleanup relies on.
	SilentClosedPorts bool
	// DisablePMTUD clears the DF bit on transmitted packets, allowing
	// routers to fragment them in flight (pre-PMTUD stacks). With path
	// MTU discovery on — the default, and the reason Linux 2.4 emits
	// zero IPIDs — oversized packets are dropped at small-MTU hops
	// instead.
	DisablePMTUD bool
}

// Defaults fills unset fields with typical values.
func (c Config) Defaults() Config {
	if c.DelAckThreshold == 0 {
		c.DelAckThreshold = 2
	}
	if c.DelAckTimeout == 0 {
		c.DelAckTimeout = 200 * time.Millisecond
	}
	if c.MSS == 0 {
		c.MSS = 1460
	}
	if c.RTO == 0 {
		c.RTO = 1 * time.Second
	}
	if c.ObjectSize == 0 {
		c.ObjectSize = 64 << 10
	}
	return c
}

// window is the receive window every stack advertises.
const window = 65535

// Stats counts externally observable stack actions, for tests and reports.
type Stats struct {
	SegsIn        uint64 // TCP segments processed
	AcksSent      uint64 // pure ACKs transmitted
	DelayedAcks   uint64 // ACKs sent by the delayed-ACK timer
	ImmediateAcks uint64 // ACKs forced by OOO data or hole fills
	SynAcksSent   uint64
	RstsSent      uint64
	DataSegsSent  uint64
	Retransmits   uint64
}

type connState int

const (
	stateSynRecv connState = iota
	stateEstablished
)

type oooSeg struct {
	seq uint32
	end uint32 // seq + len
}

type conn struct {
	state  connState
	peer   netip.Addr
	pport  uint16 // peer port
	lport  uint16 // local port
	iss    uint32 // our initial send sequence
	irs    uint32 // peer's initial sequence
	rcvNxt uint32
	sndNxt uint32
	sndUna uint32

	peerMSS uint16
	peerWnd uint32
	sackOK  bool
	ooo     []oooSeg           // out-of-order segments, disjoint, sorted by seq
	sack    []packet.SACKBlock // reportable blocks, most recent first
	sackAlt []packet.SACKBlock // scratch for rebuilding sack without allocating

	delackCount int
	delackTimer sim.Timer

	// Data-serving application state.
	serving    bool
	sendEnd    uint32 // sequence number one past the last byte to serve
	rtxTimer   sim.Timer
	appGotReq  bool
	reqNewline bool // a '\n' arrived: the request line is complete
}

// Stack is one host's TCP implementation.
type Stack struct {
	loop *sim.Loop
	cfg  Config
	addr netip.Addr
	gen  ipid.Generator
	ids  *netem.FrameIDs
	out  netem.Node
	rng  *sim.Rand
	// conns is a linear-scan table: a serving stack holds a handful of
	// live connections, where a slice scan beats map hashing on the
	// per-segment path (the hash of a FlowKey costs more than comparing
	// a few entries).
	conns []connEntry
	ports []uint16 // listening ports, typically one
	stats Stats

	// Steady-state scratch: the stack handles one segment at a time on a
	// single-threaded loop, so one decoded packet and one outgoing header
	// serve every connection without per-segment allocation. arena
	// (optional) supplies the frame views (and any materialized wire
	// bytes) the stack emits.
	arena    *netem.Arena
	rxPkt    packet.Packet
	viewPkt  packet.Packet // aliases a frame view during Input only
	txHdr    packet.TCPHeader
	sackBuf  []byte
	mssData  [2]byte
	delackFn func(any)
	rtxFn    func(any)

	// connPool recycles connection state: dropped connections return here
	// and acceptSYN reuses them (including their OOO/SACK slice storage),
	// so a long-lived stack reaches a steady state where accepting a
	// connection allocates nothing.
	connPool []*conn
}

// connEntry is one live connection in the stack's linear-scan table.
type connEntry struct {
	k packet.FlowKey
	c *conn
}

// New returns a stack for addr that transmits via out, stamping IPIDs from
// gen and frame IDs from ids.
func New(loop *sim.Loop, cfg Config, addr netip.Addr, gen ipid.Generator, ids *netem.FrameIDs, rng *sim.Rand, out netem.Node) *Stack {
	s := &Stack{loop: loop, ids: ids, rng: rng}
	s.delackFn = func(arg any) {
		s.stats.DelayedAcks++
		s.sendAck(arg.(*conn), false)
	}
	s.rtxFn = func(arg any) { s.retransmit(arg.(*conn)) }
	s.ResetAt(cfg, addr, gen, out)
	return s
}

// findConn returns the live connection for k, or nil.
func (s *Stack) findConn(k packet.FlowKey) *conn {
	for i := range s.conns {
		if s.conns[i].k == k {
			return s.conns[i].c
		}
	}
	return nil
}

// listening reports whether port accepts connections.
func (s *Stack) listening(port uint16) bool {
	for _, p := range s.ports {
		if p == port {
			return true
		}
	}
	return false
}

// SetArena directs the stack to allocate transmitted datagrams and frames
// from a, typically the owning scenario's arena. A nil arena (the default)
// falls back to the garbage collector.
func (s *Stack) SetArena(a *netem.Arena) { s.arena = a }

// Reset reconfigures the stack for cfg, keeping its scratch storage,
// connection pool and the random stream object (which the caller reseeds,
// see sim.Rand.ForkInto). Pooled scenario hosts reuse their stacks across
// topology rebuilds this way. Live connections are recycled; listening
// ports are cleared for the caller to re-Listen.
func (s *Stack) Reset(cfg Config, gen ipid.Generator, out netem.Node) {
	s.ResetAt(cfg, s.addr, gen, out)
}

// ResetAt is Reset with an address rebind, and New ends by calling it:
// topology-graph scenarios pool hosts by profile and reassign addresses per
// build, so a reused stack must answer at whatever address the new topology
// placed it.
func (s *Stack) ResetAt(cfg Config, addr netip.Addr, gen ipid.Generator, out netem.Node) {
	s.cfg = cfg.Defaults()
	s.addr = addr
	s.gen = gen
	s.out = out
	s.stats = Stats{}
	for i := range s.conns {
		s.recycleConn(s.conns[i].c)
	}
	s.conns = s.conns[:0]
	s.ports = s.ports[:0]
}

// recycleConn returns connection state to the pool. Timers need no Stop
// here when the owning loop was reset (stale handles are inert), and a
// Stop on a live loop is the caller's concern (see dropConn).
func (s *Stack) recycleConn(c *conn) {
	s.connPool = append(s.connPool, c)
}

// Listen opens a port; segments to it are served by the data application.
func (s *Stack) Listen(port uint16) {
	if !s.listening(port) {
		s.ports = append(s.ports, port)
	}
}

// Stats returns a snapshot of the stack's counters.
func (s *Stack) Stats() Stats { return s.stats }

// Conns returns the number of live connections (tests and leak checks).
func (s *Stack) Conns() int { return len(s.conns) }

// Input implements netem.Node: the stack's ingress from the network. A
// frame carrying a decoded view is consumed as-is — zero decode, zero
// checksum verification (views are checksum-valid by construction); only
// byte-form frames (fragments, corrupted copies, externally injected
// datagrams) pay the decode.
func (s *Stack) Input(f *netem.Frame) {
	if v := f.View(); v != nil {
		if v.IP.Protocol != packet.ProtoTCP || v.IP.Dst != s.addr {
			return
		}
		// Alias the view in the stack's scratch packet for the duration of
		// the call: segment handling is read-only on the decoded form and
		// never retains it, and the aliases are severed on return so no
		// later decode can scribble on arena-owned view memory.
		s.viewPkt.IP = v.IP
		s.viewPkt.TCP = &v.TCP
		s.viewPkt.Payload = v.Payload
		s.viewPkt.WireLen = v.WireLen()
		s.stats.SegsIn++
		s.handleSegment(&s.viewPkt)
		s.viewPkt.TCP = nil
		s.viewPkt.Payload = nil
		return
	}
	if err := packet.DecodeInto(&s.rxPkt, f.Data); err != nil || s.rxPkt.TCP == nil || s.rxPkt.IP.Dst != s.addr {
		return // not ours or corrupt; a real NIC/IP layer drops silently
	}
	s.stats.SegsIn++
	s.handleSegment(&s.rxPkt)
}

// key builds the connection key from the peer's perspective as received.
func segKey(p *packet.Packet) packet.FlowKey { return p.Flow() }

func (s *Stack) handleSegment(p *packet.Packet) {
	k := segKey(p)
	c := s.findConn(k)
	hdr := p.TCP
	switch {
	case c != nil:
		s.handleConn(k, c, p)
	case hdr.HasFlags(packet.FlagSYN) && !hdr.HasFlags(packet.FlagACK):
		if !s.listening(hdr.DstPort) {
			s.maybeRSTClosed(p)
			return
		}
		s.acceptSYN(k, p)
	case hdr.HasFlags(packet.FlagRST):
		// RST to no connection: ignore.
	default:
		// Segment for a connection we do not have: RST per RFC 793 so the
		// prober's cleanup and stray packets resolve crisply.
		s.maybeRSTClosed(p)
	}
}

// outHdr resets and returns the stack's scratch transmit header, reusing
// its option storage. Valid until the next outHdr call; transmit copies it
// onto the wire, so nothing retains it.
func (s *Stack) outHdr() *packet.TCPHeader {
	opts := s.txHdr.Options[:0]
	s.txHdr = packet.TCPHeader{Options: opts}
	return &s.txHdr
}

func (s *Stack) maybeRSTClosed(p *packet.Packet) {
	if s.cfg.SilentClosedPorts {
		return
	}
	hdr := p.TCP
	if hdr.HasFlags(packet.FlagRST) {
		return
	}
	rst := s.outHdr()
	rst.SrcPort, rst.DstPort = hdr.DstPort, hdr.SrcPort
	rst.Flags = packet.FlagRST | packet.FlagACK
	rst.Ack = hdr.Seq + segLen(p)
	if hdr.HasFlags(packet.FlagACK) {
		rst.Flags = packet.FlagRST
		rst.Seq = hdr.Ack
		rst.Ack = 0
	}
	s.stats.RstsSent++
	s.transmit(p.IP.Src, rst, nil)
}

// segLen returns the sequence-space length of a segment (payload plus SYN
// and FIN flags).
func segLen(p *packet.Packet) uint32 {
	n := uint32(len(p.Payload))
	if p.TCP.HasFlags(packet.FlagSYN) {
		n++
	}
	if p.TCP.HasFlags(packet.FlagFIN) {
		n++
	}
	return n
}

func (s *Stack) acceptSYN(k packet.FlowKey, p *packet.Packet) {
	hdr := p.TCP
	c := s.getConn()
	*c = conn{
		state: stateSynRecv,
		peer:  p.IP.Src, pport: hdr.SrcPort, lport: hdr.DstPort,
		iss:     s.rng.Uint32(),
		irs:     hdr.Seq,
		rcvNxt:  hdr.Seq + 1,
		peerWnd: uint32(hdr.Window),
		peerMSS: 1460,
		ooo:     c.ooo[:0],
		sack:    c.sack[:0],
		sackAlt: c.sackAlt[:0],
	}
	if mss, ok := hdr.MSS(); ok {
		c.peerMSS = mss
	}
	c.sackOK = s.cfg.SACK && hdr.SACKPermitted()
	c.sndNxt = c.iss + 1
	c.sndUna = c.iss
	s.conns = append(s.conns, connEntry{k: k, c: c})
	s.sendSynAck(c)
}

// getConn checks connection state out of the pool.
func (s *Stack) getConn() *conn {
	if n := len(s.connPool); n > 0 {
		c := s.connPool[n-1]
		s.connPool = s.connPool[:n-1]
		return c
	}
	return &conn{}
}

func (s *Stack) sendSynAck(c *conn) {
	h := s.outHdr()
	s.mssData[0], s.mssData[1] = byte(s.cfg.MSS>>8), byte(s.cfg.MSS)
	h.Options = append(h.Options, packet.TCPOption{Kind: packet.OptMSS, Data: s.mssData[:]})
	if s.cfg.SACK {
		h.Options = append(h.Options, packet.TCPOption{Kind: packet.OptSACKPermitted})
	}
	h.SrcPort, h.DstPort = c.lport, c.pport
	h.Seq, h.Ack = c.iss, c.rcvNxt
	h.Flags = packet.FlagSYN | packet.FlagACK
	h.Window = window
	s.stats.SynAcksSent++
	s.transmit(c.peer, h, nil)
}

func (s *Stack) handleConn(k packet.FlowKey, c *conn, p *packet.Packet) {
	hdr := p.TCP
	if hdr.HasFlags(packet.FlagRST) {
		s.dropConn(k, c)
		return
	}
	switch c.state {
	case stateSynRecv:
		s.handleSynRecv(k, c, p)
	case stateEstablished:
		s.handleEstablished(k, c, p)
	}
}

func (s *Stack) handleSynRecv(k packet.FlowKey, c *conn, p *packet.Packet) {
	hdr := p.TCP
	if hdr.HasFlags(packet.FlagSYN) && !hdr.HasFlags(packet.FlagACK) {
		s.secondSYN(k, c, p)
		return
	}
	if hdr.HasFlags(packet.FlagACK) {
		if hdr.Ack == c.iss+1 {
			c.state = stateEstablished
			c.sndUna = hdr.Ack
			c.peerWnd = uint32(hdr.Window)
			// Fall through to process any data riding the ACK.
			if len(p.Payload) > 0 || hdr.HasFlags(packet.FlagFIN) {
				s.handleEstablished(k, c, p)
			}
			return
		}
		// Unacceptable ACK in SYN_RECV: RST with seq = ack (RFC 793).
		s.stats.RstsSent++
		h := s.outHdr()
		h.SrcPort, h.DstPort = c.lport, c.pport
		h.Seq, h.Flags = hdr.Ack, packet.FlagRST
		s.transmit(c.peer, h, nil)
		s.dropConn(k, c)
	}
}

// secondSYN implements the §III-D behaviour matrix.
func (s *Stack) secondSYN(k packet.FlowKey, c *conn, p *packet.Packet) {
	hdr := p.TCP
	if hdr.Seq == c.irs {
		// Pure retransmission of the original SYN: re-answer SYN/ACK.
		s.sendSynAck(c)
		return
	}
	rst := func() {
		s.stats.RstsSent++
		h := s.outHdr()
		h.SrcPort, h.DstPort = c.lport, c.pport
		h.Seq, h.Ack = 0, hdr.Seq+1
		h.Flags = packet.FlagRST | packet.FlagACK
		s.transmit(c.peer, h, nil)
	}
	challengeAck := func() {
		s.stats.AcksSent++
		h := s.outHdr()
		h.SrcPort, h.DstPort = c.lport, c.pport
		h.Seq, h.Ack = c.sndNxt, c.rcvNxt
		h.Flags, h.Window = packet.FlagACK, window
		s.transmit(c.peer, h, nil)
	}
	switch s.cfg.SYNPolicy {
	case SYNPolicyRST:
		rst()
	case SYNPolicySpec:
		if packet.SeqInWindow(hdr.Seq, c.rcvNxt, window) {
			rst()
		} else {
			challengeAck()
		}
	case SYNPolicyDualRST:
		rst()
		rst()
	case SYNPolicyIgnore:
		// Drop silently.
	}
}

func (s *Stack) dropConn(k packet.FlowKey, c *conn) {
	c.delackTimer.Stop()
	c.rtxTimer.Stop()
	for i := range s.conns {
		if s.conns[i].k == k {
			last := len(s.conns) - 1
			s.conns[i] = s.conns[last]
			s.conns[last] = connEntry{}
			s.conns = s.conns[:last]
			break
		}
	}
	s.recycleConn(c)
}
