package core

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"strconv"
	"time"

	"reorder/internal/ipid"
	"reorder/internal/packet"
	"reorder/internal/sim"
)

// Errors returned by the measurement techniques.
var (
	// ErrHandshake means the target did not complete a TCP handshake.
	ErrHandshake = errors.New("core: handshake with target failed")
	// ErrIPIDUnusable means IPID prevalidation rejected the target for the
	// dual connection test (random, constant, or split counters).
	ErrIPIDUnusable = errors.New("core: target IPID stream unusable for dual connection test")
	// ErrNoData means the data transfer test received no data at all.
	ErrNoData = errors.New("core: target served no data")
)

// handshakeError is ErrHandshake naming the endpoint that did not answer.
// Its message is formatted when it is read, so a failed probe costs the
// error and — for whoever records it — the one string.
type handshakeError struct {
	target netip.Addr
	port   uint16
}

func (e *handshakeError) Error() string {
	b := append(make([]byte, 0, 96), ErrHandshake.Error()...)
	b = e.target.AppendTo(append(b, ": "...))
	return string(strconv.AppendUint(append(b, " port "...), uint64(e.port), 10))
}

func (e *handshakeError) Unwrap() error { return ErrHandshake }

// Prober runs measurement techniques against one target over a
// FrameTransport. It is not safe for concurrent use; run one test at a time.
type Prober struct {
	tp     FrameTransport
	target netip.Addr
	rng    *sim.Rand

	nextPort uint16
	buf      []rx // received packets not yet claimed by a waiter

	// Steady-state scratch. encBuf stages every outgoing payload (SendView
	// does not retain it); pktPool recycles decoded packets — awaitTCP
	// checks one out, the consuming site returns it with release;
	// acksBuf/ackIDs back collectAcks.
	encBuf     []byte
	txHdr      packet.TCPHeader
	txIP       packet.IPv4Header
	pktPool    []*packet.Packet
	connPool   []*conn
	acksBuf    []uint32
	ackIDs     []uint64
	synReplies []*packet.Packet
	obsScratch []ipid.Observation

	// Technique scratch, emptied by the technique that uses it: the SYN's
	// option list and MSS bytes (connect), the dual test's prevalidation
	// report, and the transfer test's request bytes, arrival sequence,
	// retransmission filter and rank table.
	synOpts  []packet.TCPOption
	mssData  [2]byte
	ipidRep  ipid.Report
	reqBuf   []byte
	arrivals []uint32
	seen     map[uint32]bool
	sorted   []uint32
}

// rx pairs a decoded packet with its network frame ID.
type rx struct {
	pkt *packet.Packet
	id  uint64
}

// maxBufferedPackets bounds the unclaimed-packet buffer; beyond it the
// oldest packets are dropped, as a kernel socket buffer would.
const maxBufferedPackets = 256

// The techniques' fixed parameters. Like the paper, every test probes a web
// server's port, waits a second for a reply unless its options say
// otherwise, validates IPIDs on a dozen observations, and paces its SYN
// pairs and bursts so the test never resembles a SYN flood.
const (
	targetPort       = 80
	replyTimeout     = time.Second
	validationProbes = 12
	pace             = 10 * time.Millisecond
)

// firstPort starts the ephemeral range the prober's connections draw from.
const firstPort = 40000

// NewProber returns a prober for the given target. The seed drives port and
// ISN selection, making simulated runs reproducible.
func NewProber(tp FrameTransport, target netip.Addr, seed uint64) *Prober {
	p := &Prober{tp: tp, target: target, rng: new(sim.Rand)}
	p.Reset(seed)
	return p
}

// Reset reseeds the prober and empties its receive buffer, keeping its
// scratch storage; NewProber ends by calling it. Campaign workers reuse one
// prober per scenario arena this way.
func (p *Prober) Reset(seed uint64) {
	p.rng.Reseed(seed, 0x9b0be)
	p.nextPort = firstPort
	for _, q := range p.buf {
		p.release(q.pkt)
	}
	p.buf = p.buf[:0]
}

// pktCell is a pooled decoded packet born with the storage a TCP segment
// decodes into — the header and room for the options a handshake or a SACK
// carries — so which cell a segment lands in never decides whether
// decoding it allocates.
type pktCell struct {
	pkt  packet.Packet
	tcp  packet.TCPHeader
	opts [4]packet.TCPOption
}

// getPkt checks a decoded-packet cell out of the pool.
func (p *Prober) getPkt() *packet.Packet {
	if n := len(p.pktPool); n > 0 {
		q := p.pktPool[n-1]
		p.pktPool = p.pktPool[:n-1]
		return q
	}
	c := new(pktCell)
	c.tcp.Options = c.opts[:0]
	c.pkt.TCP = &c.tcp
	return &c.pkt
}

// release returns a packet obtained from awaitTCP (or buffered by it) to
// the pool. The caller must drop every reference to pkt and its fields
// first; the next decode overwrites them.
func (p *Prober) release(pkt *packet.Packet) {
	if pkt == nil {
		return
	}
	p.pktPool = append(p.pktPool, pkt)
}

func (p *Prober) allocPort() uint16 {
	port := p.nextPort
	p.nextPort++
	if p.nextPort < firstPort {
		p.nextPort = firstPort
	}
	return port
}

// flushPort discards buffered packets belonging to the given local port,
// used between samples to keep stale replies from satisfying later waits.
func (p *Prober) flushPort(lport uint16) {
	kept := p.buf[:0]
	for _, q := range p.buf {
		if q.pkt.TCP != nil && q.pkt.TCP.DstPort == lport {
			p.release(q.pkt)
			continue
		}
		kept = append(kept, q)
	}
	p.buf = kept
}

// awaitTCP returns the first TCP packet from the target matching the
// predicate, with its frame ID, buffering non-matching packets for other
// waiters. The returned packet is checked out of the prober's pool; the
// consuming site must hand it back with release once done with it.
func (p *Prober) awaitTCP(timeout time.Duration, match func(*packet.Packet) bool) (*packet.Packet, uint64, bool) {
	for i, q := range p.buf {
		if match(q.pkt) {
			p.buf = append(p.buf[:i], p.buf[i+1:]...)
			return q.pkt, q.id, true
		}
	}
	deadline := p.tp.Now().Add(timeout)
	for {
		remaining := deadline.Sub(p.tp.Now())
		if remaining <= 0 {
			return nil, 0, false
		}
		pkt, id, ok := p.recvTCP(remaining)
		if !ok {
			return nil, 0, false
		}
		if pkt == nil {
			continue // not TCP, or corrupt
		}
		if pkt.IP.Dst != p.tp.LocalAddr() || pkt.IP.Src != p.target {
			p.release(pkt)
			continue
		}
		if match(pkt) {
			return pkt, id, true
		}
		if len(p.buf) >= maxBufferedPackets {
			p.release(p.buf[0].pkt)
			p.buf = p.buf[1:]
		}
		p.buf = append(p.buf, rx{pkt: pkt, id: id})
	}
}

// recvTCP pulls the next frame off the transport as a decoded TCP packet
// from the prober's pool. A frame's view is consumed directly — no decode,
// no checksum verification (views are valid by construction) — with
// DecodeInto reserved for byte-form frames. A nil packet with ok=true means
// the datagram was not a valid TCP segment and was dropped.
func (p *Prober) recvTCP(timeout time.Duration) (*packet.Packet, uint64, bool) {
	f, ok := p.tp.RecvFrame(timeout)
	if !ok {
		return nil, 0, false
	}
	if v := f.View(); v != nil {
		if v.IP.Protocol != packet.ProtoTCP {
			return nil, 0, true
		}
		pkt := p.getPkt()
		v.ToPacket(pkt)
		return pkt, f.ID, true
	}
	return p.decodePooled(f.Data), f.ID, true
}

// decodePooled decodes data into a pooled packet, returning nil (cell
// released) when the datagram is not a valid TCP segment.
func (p *Prober) decodePooled(data []byte) *packet.Packet {
	pkt := p.getPkt()
	if err := packet.DecodeInto(pkt, data); err != nil || pkt.TCP == nil {
		p.release(pkt)
		return nil
	}
	return pkt
}

// conn is the prober's client-side view of one TCP connection to the
// target. The prober crafts raw segments rather than using a kernel stack,
// exactly as sting did.
type conn struct {
	p            *Prober
	lport, rport uint16
	iss          uint32 // our initial sequence number
	serverISS    uint32
	rcvNxt       uint32 // next sequence expected from the server
	window       uint16 // window we advertise
}

// connectConfig tunes the handshake.
type connectConfig struct {
	mss     uint16 // MSS option value; 0 omits the option
	sackOK  bool
	window  uint16
	retries int
	timeout time.Duration
}

func defaultConnect() connectConfig {
	return connectConfig{window: 65535, retries: 3, timeout: time.Second}
}

// getConn checks connection state out of the pool; conn.reset returns it.
func (p *Prober) getConn() *conn {
	if n := len(p.connPool); n > 0 {
		c := p.connPool[n-1]
		p.connPool = p.connPool[:n-1]
		return c
	}
	return new(conn)
}

// connect performs the three-way handshake.
func (p *Prober) connect(rport uint16, cc connectConfig) (*conn, error) {
	c := p.getConn()
	*c = conn{
		p: p, lport: p.allocPort(), rport: rport,
		iss:    p.rng.Uint32(),
		window: cc.window,
	}
	opts := p.synOpts[:0]
	if cc.mss != 0 {
		binary.BigEndian.PutUint16(p.mssData[:], cc.mss)
		opts = append(opts, packet.TCPOption{Kind: packet.OptMSS, Data: p.mssData[:]})
	}
	if cc.sackOK {
		opts = append(opts, packet.SACKPermittedOption())
	}
	p.synOpts = opts
	for try := 0; try <= cc.retries; try++ {
		c.sendSeg(packet.FlagSYN, c.iss, 0, nil, opts)
		pkt, _, ok := p.awaitTCP(cc.timeout, func(q *packet.Packet) bool {
			return q.TCP.SrcPort == c.rport && q.TCP.DstPort == c.lport &&
				q.TCP.HasFlags(packet.FlagSYN|packet.FlagACK) && q.TCP.Ack == c.iss+1
		})
		if !ok {
			continue
		}
		c.serverISS = pkt.TCP.Seq
		c.rcvNxt = pkt.TCP.Seq + 1
		p.release(pkt)
		c.sendSeg(packet.FlagACK, c.iss+1, c.rcvNxt, nil, nil)
		return c, nil
	}
	p.connPool = append(p.connPool, c)
	return nil, &handshakeError{target: p.target, port: rport}
}

// sendSeg transmits one raw segment on the connection and returns its frame
// ID.
func (c *conn) sendSeg(flags uint8, seq, ack uint32, payload []byte, opts []packet.TCPOption) uint64 {
	return c.sendSegTOS(0, flags, seq, ack, payload, opts)
}

// sendSegTOS is sendSeg with an explicit IP TOS marking, used by the
// DiffServ-aware single connection test variant.
func (c *conn) sendSegTOS(tos uint8, flags uint8, seq, ack uint32, payload []byte, opts []packet.TCPOption) uint64 {
	return c.p.sendRawTOS(tos, c.lport, c.rport, flags, seq, ack, c.window, payload, opts)
}

// sendRaw crafts and transmits an arbitrary segment to the target.
func (p *Prober) sendRaw(lport, rport uint16, flags uint8, seq, ack uint32, window uint16, payload []byte, opts []packet.TCPOption) uint64 {
	return p.sendRawTOS(0, lport, rport, flags, seq, ack, window, payload, opts)
}

// sendRawTOS is sendRaw with an explicit IP TOS marking. The parsed
// headers cross the wire as-is; a backend that needs wire bytes encodes
// them in SendView.
func (p *Prober) sendRawTOS(tos uint8, lport, rport uint16, flags uint8, seq, ack uint32, window uint16, payload []byte, opts []packet.TCPOption) uint64 {
	hdr := &p.txHdr
	*hdr = packet.TCPHeader{
		SrcPort: lport, DstPort: rport,
		Seq: seq, Ack: ack, Flags: flags, Window: window, Options: opts,
	}
	ip := &p.txIP
	*ip = packet.IPv4Header{
		Src: p.tp.LocalAddr(), Dst: p.target,
		TOS:   tos,
		ID:    p.rng.Uint16(), // probe-side IPID is irrelevant to the tests
		Flags: packet.FlagDF,
	}
	// Stage the payload through the reusable buffer: the interface call
	// would otherwise force the tiny payload literals at probe call sites
	// ([]byte{'1'} and friends) to escape to the heap.
	buf := append(p.encBuf[:0], payload...)
	p.encBuf = buf[:0]
	return p.tp.SendView(ip, hdr, buf)
}

// awaitSeg waits for any segment on this connection.
func (c *conn) awaitSeg(timeout time.Duration, extra func(*packet.TCPHeader) bool) (*packet.Packet, uint64, bool) {
	return c.p.awaitTCP(timeout, func(q *packet.Packet) bool {
		if q.TCP.SrcPort != c.rport || q.TCP.DstPort != c.lport {
			return false
		}
		return extra == nil || extra(q.TCP)
	})
}

// awaitAckValue waits for a pure ACK with the exact acknowledgment number.
func (c *conn) awaitAckValue(timeout time.Duration, want uint32) bool {
	pkt, _, ok := c.awaitSeg(timeout, func(h *packet.TCPHeader) bool {
		return h.HasFlags(packet.FlagACK) && !h.HasFlags(packet.FlagSYN|packet.FlagRST) && h.Ack == want
	})
	if ok {
		c.p.release(pkt)
	}
	return ok
}

// reset aborts the connection with a RST, flushes its buffered packets and
// returns the connection state to the prober's pool. The conn must not be
// used after reset.
func (c *conn) reset() {
	c.sendSeg(packet.FlagRST, c.iss+1, 0, nil, nil)
	c.p.flushPort(c.lport)
	c.p.connPool = append(c.p.connPool, c)
}
