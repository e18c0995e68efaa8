package tcpstack

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"reorder/internal/ipid"
	"reorder/internal/netem"
	"reorder/internal/packet"
	"reorder/internal/sim"
)

var (
	probeAddr  = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	serverAddr = netip.AddrFrom4([4]byte{10, 0, 0, 2})
)

// harness wires a stack to a capture sink with a zero-delay wire.
type harness struct {
	t     *testing.T
	loop  *sim.Loop
	stack *Stack
	out   []*packet.Packet // packets the stack transmitted, decoded
	ids   netem.FrameIDs
	ipids []uint16
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{t: t, loop: sim.NewLoop()}
	sink := netem.NodeFunc(func(f *netem.Frame) {
		p, err := packet.Decode(f.Materialize())
		if err != nil {
			t.Fatalf("stack emitted undecodable frame: %v", err)
		}
		h.out = append(h.out, p)
		h.ipids = append(h.ipids, p.IP.ID)
	})
	h.stack = New(h.loop, cfg, serverAddr, ipid.NewGlobalCounter(1000), &h.ids, sim.NewRand(42, 42), sink)
	h.stack.Listen(80)
	return h
}

// inject delivers a crafted TCP segment to the stack and runs the loop to
// quiescence (but not past pending timers unless asked).
func (h *harness) inject(tcp *packet.TCPHeader, payload []byte) {
	h.t.Helper()
	raw, err := packet.AppendTCP(nil, &packet.IPv4Header{Src: probeAddr, Dst: serverAddr, ID: 1}, tcp, payload)
	if err != nil {
		h.t.Fatal(err)
	}
	h.stack.Input(&netem.Frame{ID: h.ids.Next(), Data: raw})
}

// drain returns packets emitted since the last drain.
func (h *harness) drain() []*packet.Packet {
	out := h.out
	h.out = nil
	return out
}

// handshake performs the client side of a 3-way handshake and returns the
// server's ISS. Client ISN is iss; client port cport.
func (h *harness) handshake(cport uint16, iss uint32) uint32 {
	h.t.Helper()
	h.inject(&packet.TCPHeader{SrcPort: cport, DstPort: 80, Seq: iss, Flags: packet.FlagSYN, Window: 65535,
		Options: []packet.TCPOption{packet.MSSOption(1460), packet.SACKPermittedOption()}}, nil)
	out := h.drain()
	if len(out) != 1 || !out[0].TCP.HasFlags(packet.FlagSYN|packet.FlagACK) {
		h.t.Fatalf("no SYN/ACK: %v", summaries(out))
	}
	sa := out[0].TCP
	if sa.Ack != iss+1 {
		h.t.Fatalf("SYN/ACK ack = %d, want %d", sa.Ack, iss+1)
	}
	h.inject(&packet.TCPHeader{SrcPort: cport, DstPort: 80, Seq: iss + 1, Ack: sa.Seq + 1,
		Flags: packet.FlagACK, Window: 65535}, nil)
	if extra := h.drain(); len(extra) != 0 {
		h.t.Fatalf("unexpected output after handshake ACK: %v", summaries(extra))
	}
	return sa.Seq
}

func summaries(ps []*packet.Packet) []string {
	s := make([]string, len(ps))
	for i, p := range ps {
		s[i] = p.Summary()
	}
	return s
}

func TestHandshake(t *testing.T) {
	h := newHarness(t, Config{})
	h.handshake(4000, 100)
	if h.stack.Conns() != 1 {
		t.Fatalf("Conns = %d, want 1", h.stack.Conns())
	}
	if h.stack.Stats().SynAcksSent != 1 {
		t.Fatalf("SynAcksSent = %d", h.stack.Stats().SynAcksSent)
	}
}

func TestSYNToClosedPortGetsRST(t *testing.T) {
	h := newHarness(t, Config{})
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 81, Seq: 100, Flags: packet.FlagSYN}, nil)
	out := h.drain()
	if len(out) != 1 || !out[0].TCP.HasFlags(packet.FlagRST) {
		t.Fatalf("want RST, got %v", summaries(out))
	}
	if out[0].TCP.Ack != 101 {
		t.Fatalf("RST ack = %d, want 101 (seq+1)", out[0].TCP.Ack)
	}
}

func TestSilentClosedPorts(t *testing.T) {
	h := newHarness(t, Config{SilentClosedPorts: true})
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 81, Seq: 100, Flags: packet.FlagSYN}, nil)
	if out := h.drain(); len(out) != 0 {
		t.Fatalf("filtered host answered: %v", summaries(out))
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.DelAckThreshold != 2 || c.DelAckTimeout != 200*time.Millisecond || c.MSS != 1460 ||
		c.RTO != time.Second || c.ObjectSize != 64<<10 {
		t.Fatalf("Defaults() = %+v", c)
	}
}

// --- Out-of-order and hole behaviour (single connection test substrate) ---

func TestOOOSegmentTriggersImmediateDupAck(t *testing.T) {
	h := newHarness(t, Config{})
	h.handshake(4000, 100)
	// Send one byte at seq 102: one past rcvNxt (101) => a hole at 101.
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 102, Ack: 0, Flags: packet.FlagACK}, []byte{'x'})
	out := h.drain()
	if len(out) != 1 {
		t.Fatalf("want 1 immediate ACK, got %v", summaries(out))
	}
	if out[0].TCP.Ack != 101 {
		t.Fatalf("dup ACK ack = %d, want 101 (the hole)", out[0].TCP.Ack)
	}
	if h.stack.Stats().ImmediateAcks != 1 {
		t.Fatalf("ImmediateAcks = %d", h.stack.Stats().ImmediateAcks)
	}
}

func TestSCTForwardInOrderPattern(t *testing.T) {
	// Prepare a hole (byte 102 queued), then deliver straddling samples in
	// order: data(101), data(103). Expect ack(103) [hole fill: 101+102
	// contiguous] then ack for 103 — the "ack mid, ack full" pattern.
	h := newHarness(t, Config{DelAckThreshold: 2, DelAckTimeout: 100 * time.Millisecond})
	h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 102, Flags: packet.FlagACK}, []byte{'b'})
	h.drain() // dup ack
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Flags: packet.FlagACK}, []byte{'a'})
	first := h.drain()
	if len(first) != 1 || first[0].TCP.Ack != 103 {
		t.Fatalf("first sample ACK = %v, want ack=103", summaries(first))
	}
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 103, Flags: packet.FlagACK}, []byte{'c'})
	// In-order data: delayed-ack may hold it; run past the delack timeout.
	h.loop.RunFor(time.Second)
	second := h.drain()
	if len(second) != 1 || second[0].TCP.Ack != 104 {
		t.Fatalf("second sample ACK = %v, want ack=104", summaries(second))
	}
}

func TestSCTForwardReorderedPattern(t *testing.T) {
	// Same preparation, samples delivered out of order: data(103) first
	// => dup ack(101); then data(101) fills everything => ack(104).
	h := newHarness(t, Config{})
	h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 102, Flags: packet.FlagACK}, []byte{'b'})
	h.drain()
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 103, Flags: packet.FlagACK}, []byte{'c'})
	first := h.drain()
	if len(first) != 1 || first[0].TCP.Ack != 101 {
		t.Fatalf("first ACK = %v, want dup ack=101", summaries(first))
	}
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Flags: packet.FlagACK}, []byte{'a'})
	second := h.drain()
	if len(second) != 1 || second[0].TCP.Ack != 104 {
		t.Fatalf("second ACK = %v, want ack=104 (hole filled)", summaries(second))
	}
	// Both were immediate: no delayed-ack latency involved.
	if h.stack.Stats().DelayedAcks != 0 {
		t.Fatal("delayed ack fired for OOO traffic")
	}
}

func TestDuplicateOldDataGetsImmediateAck(t *testing.T) {
	h := newHarness(t, Config{})
	h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Flags: packet.FlagACK}, []byte{'a'})
	h.loop.RunFor(time.Second) // flush delack
	h.drain()
	// Re-send the same byte: entirely old.
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Flags: packet.FlagACK}, []byte{'a'})
	out := h.drain()
	if len(out) != 1 || out[0].TCP.Ack != 102 {
		t.Fatalf("old data ACK = %v, want immediate ack=102", summaries(out))
	}
}

func TestDelayedAckThreshold(t *testing.T) {
	h := newHarness(t, Config{DelAckThreshold: 2, DelAckTimeout: 200 * time.Millisecond})
	h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Flags: packet.FlagACK}, []byte{'a'})
	if out := h.drain(); len(out) != 0 {
		t.Fatalf("first in-order segment acked immediately: %v", summaries(out))
	}
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 102, Flags: packet.FlagACK}, []byte{'b'})
	out := h.drain()
	if len(out) != 1 || out[0].TCP.Ack != 103 {
		t.Fatalf("second segment should force ack=103: %v", summaries(out))
	}
}

func TestDelayedAckTimeout(t *testing.T) {
	h := newHarness(t, Config{DelAckThreshold: 4, DelAckTimeout: 150 * time.Millisecond})
	h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Flags: packet.FlagACK}, []byte{'a'})
	h.loop.RunFor(100 * time.Millisecond)
	if len(h.drain()) != 0 {
		t.Fatal("ack before timeout")
	}
	h.loop.RunFor(100 * time.Millisecond)
	out := h.drain()
	if len(out) != 1 || out[0].TCP.Ack != 102 {
		t.Fatalf("timeout ack = %v", summaries(out))
	}
	if h.stack.Stats().DelayedAcks != 1 {
		t.Fatalf("DelayedAcks = %d, want 1", h.stack.Stats().DelayedAcks)
	}
}

func TestAckEveryPacketMode(t *testing.T) {
	h := newHarness(t, Config{DelAckThreshold: 1})
	h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Flags: packet.FlagACK}, []byte{'a'})
	if out := h.drain(); len(out) != 1 {
		t.Fatalf("quickack mode: got %v", summaries(out))
	}
}

// --- SACK generation ---

func TestSACKBlocksOnOOOData(t *testing.T) {
	cfg := Config{SACK: true}
	h := newHarness(t, cfg)
	h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 105, Flags: packet.FlagACK}, []byte("xx"))
	out := h.drain()
	blocks := out[0].TCP.SACKBlocks()
	if len(blocks) != 1 || blocks[0] != (packet.SACKBlock{Left: 105, Right: 107}) {
		t.Fatalf("SACK = %v, want [{105 107}]", blocks)
	}
	// A second, distinct OOO island: newest block first.
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 110, Flags: packet.FlagACK}, []byte("yy"))
	out = h.drain()
	blocks = out[0].TCP.SACKBlocks()
	if len(blocks) != 2 || blocks[0].Left != 110 || blocks[1].Left != 105 {
		t.Fatalf("SACK = %v, want newest-first [{110 112} {105 107}]", blocks)
	}
	// Adjacent fill merges islands.
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 107, Flags: packet.FlagACK}, []byte("zzz"))
	out = h.drain()
	blocks = out[0].TCP.SACKBlocks()
	if len(blocks) != 1 || blocks[0] != (packet.SACKBlock{Left: 105, Right: 112}) {
		t.Fatalf("SACK after merge = %v, want [{105 112}]", blocks)
	}
	// Filling the hole clears all SACK state.
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Flags: packet.FlagACK}, []byte("aaaa"))
	out = h.drain()
	if out[0].TCP.Ack != 112 {
		t.Fatalf("fill ACK = %d, want 112", out[0].TCP.Ack)
	}
	if len(out[0].TCP.SACKBlocks()) != 0 {
		t.Fatalf("stale SACK blocks: %v", out[0].TCP.SACKBlocks())
	}
}

func TestNoSACKWithoutNegotiation(t *testing.T) {
	h := newHarness(t, Config{SACK: true})
	// Client does not offer SACK-permitted.
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 100, Flags: packet.FlagSYN, Window: 65535}, nil)
	sa := h.drain()[0].TCP
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Ack: sa.Seq + 1, Flags: packet.FlagACK, Window: 65535}, nil)
	h.drain()
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 105, Flags: packet.FlagACK}, []byte("xx"))
	out := h.drain()
	if len(out[0].TCP.SACKBlocks()) != 0 {
		t.Fatal("SACK blocks without negotiation")
	}
}

// --- Second SYN policy matrix (SYN test substrate) ---

func sendTwoSYNs(t *testing.T, h *harness, seq1, seq2 uint32) []*packet.Packet {
	t.Helper()
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: seq1, Flags: packet.FlagSYN, Window: 65535}, nil)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: seq2, Flags: packet.FlagSYN, Window: 65535}, nil)
	return h.drain()
}

func TestSecondSYNPolicyRST(t *testing.T) {
	h := newHarness(t, Config{SYNPolicy: SYNPolicyRST})
	out := sendTwoSYNs(t, h, 100, 105)
	if len(out) != 2 {
		t.Fatalf("want SYN/ACK + RST, got %v", summaries(out))
	}
	if !out[0].TCP.HasFlags(packet.FlagSYN|packet.FlagACK) || out[0].TCP.Ack != 101 {
		t.Fatalf("first reply %s, want SYN/ACK ack=101", out[0].Summary())
	}
	if !out[1].TCP.HasFlags(packet.FlagRST) {
		t.Fatalf("second reply %s, want RST", out[1].Summary())
	}
}

func TestSecondSYNPolicySpecInWindow(t *testing.T) {
	h := newHarness(t, Config{SYNPolicy: SYNPolicySpec})
	out := sendTwoSYNs(t, h, 100, 105) // 105 inside [101, 101+win)
	if len(out) != 2 || !out[1].TCP.HasFlags(packet.FlagRST) {
		t.Fatalf("in-window second SYN: %v, want RST", summaries(out))
	}
}

func TestSecondSYNPolicySpecOutOfWindow(t *testing.T) {
	h := newHarness(t, Config{SYNPolicy: SYNPolicySpec})
	var below uint32 = 100
	below -= 70000 // wraps: far below the window
	out := sendTwoSYNs(t, h, 100, below)
	if len(out) != 2 {
		t.Fatalf("want 2 replies, got %v", summaries(out))
	}
	second := out[1].TCP
	if second.HasFlags(packet.FlagRST) || !second.HasFlags(packet.FlagACK) {
		t.Fatalf("out-of-window second SYN reply %s, want pure ACK", out[1].Summary())
	}
	if second.Ack != 101 {
		t.Fatalf("challenge ACK ack = %d, want 101 (original state)", second.Ack)
	}
}

func TestSecondSYNPolicyDualRST(t *testing.T) {
	h := newHarness(t, Config{SYNPolicy: SYNPolicyDualRST})
	out := sendTwoSYNs(t, h, 100, 105)
	if len(out) != 3 || !out[1].TCP.HasFlags(packet.FlagRST) || !out[2].TCP.HasFlags(packet.FlagRST) {
		t.Fatalf("dual-RST policy: %v", summaries(out))
	}
}

func TestSecondSYNPolicyIgnore(t *testing.T) {
	h := newHarness(t, Config{SYNPolicy: SYNPolicyIgnore})
	out := sendTwoSYNs(t, h, 100, 105)
	if len(out) != 1 {
		t.Fatalf("ignore policy: %v, want SYN/ACK only", summaries(out))
	}
}

func TestRetransmittedSYNGetsSynAckAgain(t *testing.T) {
	h := newHarness(t, Config{SYNPolicy: SYNPolicyRST})
	out := sendTwoSYNs(t, h, 100, 100) // identical seq: retransmission
	if len(out) != 2 || !out[1].TCP.HasFlags(packet.FlagSYN|packet.FlagACK) {
		t.Fatalf("retransmitted SYN: %v, want second SYN/ACK", summaries(out))
	}
}

func TestSYNAckNumberRevealsArrivalOrder(t *testing.T) {
	// The SYN test's forward-path inference: the first SYN/ACK acks the
	// sequence number of whichever SYN arrived first.
	h := newHarness(t, Config{SYNPolicy: SYNPolicyRST})
	out := sendTwoSYNs(t, h, 200, 205) // "reordered": SYN2 (seq 200) first
	if out[0].TCP.Ack != 201 {
		t.Fatalf("SYN/ACK ack = %d, want 201", out[0].TCP.Ack)
	}
}

func TestRSTDropsConnection(t *testing.T) {
	h := newHarness(t, Config{})
	h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Flags: packet.FlagRST}, nil)
	if h.stack.Conns() != 0 {
		t.Fatal("RST did not tear down connection")
	}
}

func TestFINTeardown(t *testing.T) {
	h := newHarness(t, Config{})
	h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Flags: packet.FlagFIN | packet.FlagACK}, nil)
	out := h.drain()
	if len(out) != 1 || !out[0].TCP.HasFlags(packet.FlagFIN|packet.FlagACK) || out[0].TCP.Ack != 102 {
		t.Fatalf("FIN reply = %v, want FIN/ACK ack=102", summaries(out))
	}
	if h.stack.Conns() != 0 {
		t.Fatal("connection lingered after FIN")
	}
}

// TestUnacceptableAckInSynRecvGetsRST: an ACK in SYN_RECV that does not
// acknowledge the SYN/ACK is answered with a RST whose sequence number is
// that ACK number (RFC 793), and the half-open connection is dropped.
func TestUnacceptableAckInSynRecvGetsRST(t *testing.T) {
	h := newHarness(t, Config{})
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 100, Flags: packet.FlagSYN, Window: 65535}, nil)
	sa := h.drain()
	if len(sa) != 1 || !sa[0].TCP.HasFlags(packet.FlagSYN|packet.FlagACK) {
		t.Fatalf("no SYN/ACK: %v", summaries(sa))
	}
	bad := sa[0].TCP.Seq + 7
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Ack: bad, Flags: packet.FlagACK, Window: 65535}, nil)
	out := h.drain()
	if len(out) != 1 || out[0].TCP.Flags != packet.FlagRST || out[0].TCP.Seq != bad || out[0].TCP.DstPort != 4000 {
		t.Fatalf("reply to an unacceptable ACK = %v, want a bare RST seq=%d to port 4000", summaries(out), bad)
	}
	if h.stack.Conns() != 0 || h.stack.Stats().RstsSent != 1 {
		t.Fatalf("after the RST: %d connections, %d RSTs sent; want 0, 1", h.stack.Conns(), h.stack.Stats().RstsSent)
	}
}

// TestDataWithFINAcksTheFIN: a segment carrying in-order data and a FIN is
// acknowledged at once, past the FIN, instead of waiting on the delayed-ACK
// timer, and the connection stays open (the server sends no FIN of its own).
func TestDataWithFINAcksTheFIN(t *testing.T) {
	h := newHarness(t, Config{DelAckThreshold: 2, DelAckTimeout: 200 * time.Millisecond})
	h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Flags: packet.FlagFIN | packet.FlagACK}, []byte{'x'})
	out := h.drain()
	if len(out) != 1 || out[0].TCP.Flags != packet.FlagACK || out[0].TCP.Ack != 103 {
		t.Fatalf("reply to data+FIN = %v, want one ACK ack=103", summaries(out))
	}
	h.loop.RunFor(time.Second)
	if extra := h.drain(); len(extra) != 0 {
		t.Fatalf("the delayed-ACK timer fired after the FIN was acknowledged: %v", summaries(extra))
	}
	if h.stack.Conns() != 1 {
		t.Fatalf("Conns = %d after data+FIN, want 1", h.stack.Conns())
	}
}

// --- Data serving (TCP data transfer test substrate) ---

func TestServeObjectRespectsMSSAndWindow(t *testing.T) {
	cfg := Config{ObjectSize: 1000, MSS: 1460}
	h := newHarness(t, cfg)
	// Client clamps MSS to 256 and window to 512.
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 100, Flags: packet.FlagSYN, Window: 512,
		Options: []packet.TCPOption{packet.MSSOption(256)}}, nil)
	sa := h.drain()[0].TCP
	serverISS := sa.Seq
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Ack: serverISS + 1, Flags: packet.FlagACK, Window: 512}, nil)
	h.drain()
	// Request.
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Ack: serverISS + 1, Flags: packet.FlagACK | packet.FlagPSH, Window: 512}, []byte("GET /\r\n"))
	out := h.drain()
	var dataBytes int
	for _, p := range out {
		if len(p.Payload) > 256 {
			t.Fatalf("segment %d bytes exceeds clamped MSS 256", len(p.Payload))
		}
		dataBytes += len(p.Payload)
	}
	if dataBytes > 512 {
		t.Fatalf("%d bytes in flight exceeds advertised window 512", dataBytes)
	}
	if dataBytes == 0 {
		t.Fatal("no data served")
	}
	// ACK everything so far; server should continue until 1000 bytes total.
	total := dataBytes
	for i := 0; i < 20 && total < 1000; i++ {
		ackTo := serverISS + 1 + uint32(total)
		h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 108, Ack: ackTo, Flags: packet.FlagACK, Window: 512}, nil)
		for _, p := range h.drain() {
			total += len(p.Payload)
		}
	}
	if total != 1000 {
		t.Fatalf("served %d bytes, want 1000", total)
	}
}

func TestServeRetransmitOnTimeout(t *testing.T) {
	cfg := Config{ObjectSize: 100, RTO: 300 * time.Millisecond}
	h := newHarness(t, cfg)
	serverISS := h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Ack: serverISS + 1, Flags: packet.FlagACK, Window: 65535}, []byte("GET\n"))
	first := h.drain()
	if len(first) == 0 {
		t.Fatal("no data served")
	}
	// Never ACK: RTO should fire and resend from sndUna. The drain also
	// contains the delayed ACK of the request bytes; only data segments
	// are retransmissions.
	h.loop.RunFor(400 * time.Millisecond)
	rtx := dataSegments(h.drain())
	if len(rtx) == 0 {
		t.Fatal("no retransmission after RTO")
	}
	if rtx[0].TCP.Seq != serverISS+1 {
		t.Fatalf("retransmit seq = %d, want %d", rtx[0].TCP.Seq, serverISS+1)
	}
	if h.stack.Stats().Retransmits == 0 {
		t.Fatal("Retransmits counter not incremented")
	}
}

func TestServeStopsWhenFullyAcked(t *testing.T) {
	cfg := Config{ObjectSize: 64, RTO: 100 * time.Millisecond}
	h := newHarness(t, cfg)
	serverISS := h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Ack: serverISS + 1, Flags: packet.FlagACK, Window: 65535}, []byte("GET\n"))
	out := h.drain()
	n := 0
	for _, p := range out {
		n += len(p.Payload)
	}
	if n != 64 {
		t.Fatalf("served %d, want 64", n)
	}
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 105, Ack: serverISS + 1 + 64, Flags: packet.FlagACK, Window: 65535}, nil)
	h.drain()
	h.loop.RunFor(time.Second)
	if rtx := dataSegments(h.drain()); len(rtx) != 0 {
		t.Fatalf("server kept transmitting after full ACK: %v", summaries(rtx))
	}
}

// TestRequestLineLimit checks that only a '\n' near the stream's start
// completes the request: one at byte 100 is served, one behind 9 KiB of
// other bytes, past requestLineLimit, is not.
func TestRequestLineLimit(t *testing.T) {
	for _, tc := range []struct {
		before int // bytes ahead of the '\n'
		served bool
	}{{100, true}, {9 << 10, false}} {
		h := newHarness(t, Config{ObjectSize: 64})
		serverISS := h.handshake(4000, 100)
		stream := append(bytes.Repeat([]byte{'x'}, tc.before), '\n')
		for off := 0; off < len(stream); off += 1024 {
			seg := stream[off:min(off+1024, len(stream))]
			h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101 + uint32(off), Ack: serverISS + 1, Flags: packet.FlagACK, Window: 65535}, seg)
		}
		if got := len(dataSegments(h.drain())) > 0; got != tc.served {
			t.Errorf("'\\n' after %d bytes: served %v, want %v", tc.before, got, tc.served)
		}
	}
}

// dataSegments filters out pure ACKs, keeping only payload-bearing packets.
func dataSegments(ps []*packet.Packet) []*packet.Packet {
	var out []*packet.Packet
	for _, p := range ps {
		if len(p.Payload) > 0 {
			out = append(out, p)
		}
	}
	return out
}

func TestServedPayloadDeterministic(t *testing.T) {
	cfg := Config{ObjectSize: 32}
	h := newHarness(t, cfg)
	serverISS := h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 101, Ack: serverISS + 1, Flags: packet.FlagACK, Window: 65535}, []byte("GET\n"))
	out := h.drain()
	for _, p := range out {
		for i, b := range p.Payload {
			if want := byte((p.TCP.Seq + uint32(i)) % 251); b != want {
				t.Fatalf("payload[%d] = %d, want %d", i, b, want)
			}
		}
	}
}

// --- IPID stamping ---

func TestIPIDsStampedSequentially(t *testing.T) {
	h := newHarness(t, Config{})
	h.handshake(4000, 100)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 105, Flags: packet.FlagACK}, []byte{'x'})
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 108, Flags: packet.FlagACK}, []byte{'y'})
	if len(h.ipids) < 3 {
		t.Fatalf("too few packets: %d", len(h.ipids))
	}
	for i := 1; i < len(h.ipids); i++ {
		if h.ipids[i] != h.ipids[i-1]+1 {
			t.Fatalf("IPIDs not sequential: %v", h.ipids)
		}
	}
}

func TestIgnoresPacketsForOtherHosts(t *testing.T) {
	h := newHarness(t, Config{})
	other := netip.AddrFrom4([4]byte{10, 0, 0, 50})
	raw, err := packet.AppendTCP(nil, &packet.IPv4Header{Src: probeAddr, Dst: other},
		&packet.TCPHeader{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.stack.Input(&netem.Frame{ID: 1, Data: raw})
	if len(h.drain()) != 0 || h.stack.Stats().SegsIn != 0 {
		t.Fatal("stack processed a packet not addressed to it")
	}
}

func TestIgnoresCorruptFrames(t *testing.T) {
	h := newHarness(t, Config{})
	h.stack.Input(&netem.Frame{ID: 1, Data: []byte{0x45, 0x00, 0x01}})
	if len(h.drain()) != 0 {
		t.Fatal("stack answered garbage")
	}
}

func TestSYNPolicyString(t *testing.T) {
	names := map[SYNPolicy]string{
		SYNPolicyRST: "rst-always", SYNPolicySpec: "per-spec",
		SYNPolicyDualRST: "dual-rst", SYNPolicyIgnore: "ignore",
		SYNPolicy(99): "unknown",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("String(%d) = %q, want %q", p, p.String(), want)
		}
	}
}

// --- Sequence-number wraparound ---

func TestDataAcrossSequenceWrap(t *testing.T) {
	// Client ISN two bytes below 2^32: the SCT-style hole and samples
	// straddle the wrap. The stack's modular arithmetic must advance
	// rcvNxt through zero.
	h := newHarness(t, Config{})
	iss := uint32(0xfffffffd)
	h.handshake(4000, iss) // rcvNxt = 0xfffffffe
	// Hole one past expected: seq 0xffffffff.
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 0xffffffff, Flags: packet.FlagACK}, []byte{'b'})
	out := h.drain()
	if len(out) != 1 || out[0].TCP.Ack != 0xfffffffe {
		t.Fatalf("dup ack = %v", summaries(out))
	}
	// Fill: 3 bytes from 0xfffffffe cover fffffffe, ffffffff, 00000000.
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 0xfffffffe, Flags: packet.FlagACK}, []byte("xyz"))
	out = h.drain()
	if len(out) != 1 || out[0].TCP.Ack != 1 {
		t.Fatalf("wrap fill ack = %v, want ack=1", summaries(out))
	}
}

func TestOOOQueueAcrossWrap(t *testing.T) {
	h := newHarness(t, Config{SACK: true})
	iss := uint32(0xfffffff0)
	h.handshake(4000, iss) // rcvNxt = 0xfffffff1
	// Two OOO islands, one on each side of the wrap.
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 0xfffffff8, Flags: packet.FlagACK}, []byte("aa"))
	h.drain()
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 4, Flags: packet.FlagACK}, []byte("bb"))
	out := h.drain()
	blocks := out[0].TCP.SACKBlocks()
	if len(blocks) != 2 {
		t.Fatalf("SACK across wrap = %v", blocks)
	}
	// Fill everything from rcvNxt to past the second island.
	fill := make([]byte, 21) // 0xfffffff1 + 21 = 6
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 0xfffffff1, Flags: packet.FlagACK}, fill)
	out = h.drain()
	if len(out) != 1 || out[0].TCP.Ack != 6 {
		t.Fatalf("fill across wrap = %v, want ack=6", summaries(out))
	}
	if len(out[0].TCP.SACKBlocks()) != 0 {
		t.Fatal("stale SACK blocks after wrap fill")
	}
}

func TestDisablePMTUDClearsDF(t *testing.T) {
	cfg := Config{DisablePMTUD: true}
	h := newHarness(t, cfg)
	h.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 100, Flags: packet.FlagSYN, Window: 1000}, nil)
	out := h.drain()
	if out[0].IP.Flags&packet.FlagDF != 0 {
		t.Fatal("DF set despite DisablePMTUD")
	}
	h2 := newHarness(t, Config{})
	h2.inject(&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 100, Flags: packet.FlagSYN, Window: 1000}, nil)
	out2 := h2.drain()
	if out2[0].IP.Flags&packet.FlagDF == 0 {
		t.Fatal("DF clear by default")
	}
}
