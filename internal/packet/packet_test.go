package packet

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

var (
	probeAddr  = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	serverAddr = netip.AddrFrom4([4]byte{10, 0, 0, 2})
)

func mustEncodeTCP(t *testing.T, ip *IPv4Header, tcp *TCPHeader, payload []byte) []byte {
	t.Helper()
	b, err := AppendTCP(nil, ip, tcp, payload)
	if err != nil {
		t.Fatalf("AppendTCP: %v", err)
	}
	return b
}

func TestTCPRoundTrip(t *testing.T) {
	ip := &IPv4Header{Src: probeAddr, Dst: serverAddr, ID: 1234, TTL: 61, TOS: 0x10, Flags: FlagDF}
	tcp := &TCPHeader{
		SrcPort: 43210, DstPort: 80,
		Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: FlagSYN | FlagACK, Window: 5840, Urgent: 7,
		Options: []TCPOption{MSSOption(1460), TCPOption{Kind: OptNOP}, SACKPermittedOption()},
	}
	payload := []byte("GET / HTTP/1.0\r\n\r\n")
	raw := mustEncodeTCP(t, ip, tcp, payload)

	p, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.TCP == nil {
		t.Fatal("TCP layer missing")
	}
	if p.IP.Src != probeAddr || p.IP.Dst != serverAddr {
		t.Errorf("addresses: got %s > %s", p.IP.Src, p.IP.Dst)
	}
	if p.IP.ID != 1234 || p.IP.TTL != 61 || p.IP.TOS != 0x10 || p.IP.Flags != FlagDF {
		t.Errorf("IP fields: %+v", p.IP)
	}
	if p.TCP.Seq != 0xdeadbeef || p.TCP.Ack != 0x01020304 {
		t.Errorf("seq/ack: %d/%d", p.TCP.Seq, p.TCP.Ack)
	}
	if !p.TCP.HasFlags(FlagSYN | FlagACK) {
		t.Errorf("flags = %s", p.TCP.FlagString())
	}
	if p.TCP.Window != 5840 || p.TCP.Urgent != 7 {
		t.Errorf("window/urgent: %d/%d", p.TCP.Window, p.TCP.Urgent)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Errorf("payload = %q", p.Payload)
	}
	if mss, ok := p.TCP.MSS(); !ok || mss != 1460 {
		t.Errorf("MSS = %d, %v", mss, ok)
	}
	if !p.TCP.SACKPermitted() {
		t.Error("SACK-permitted option lost")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	ip := &IPv4Header{Src: probeAddr, Dst: serverAddr, ID: 99}
	echo := &ICMPEcho{Type: ICMPEchoRequest, Ident: 777, Seq: 3, Payload: bytes.Repeat([]byte{0xab}, 48)}
	raw, err := AppendICMP(nil, ip, echo)
	if err != nil {
		t.Fatalf("AppendICMP: %v", err)
	}
	p, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.ICMP == nil || !p.ICMP.IsRequest() {
		t.Fatal("ICMP echo request missing")
	}
	if p.ICMP.Ident != 777 || p.ICMP.Seq != 3 || len(p.ICMP.Payload) != 48 {
		t.Errorf("fields: %+v", p.ICMP)
	}
}

func TestDefaultTTL(t *testing.T) {
	raw := mustEncodeTCP(t, &IPv4Header{Src: probeAddr, Dst: serverAddr}, &TCPHeader{SrcPort: 1, DstPort: 2}, nil)
	p, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.IP.TTL != 64 {
		t.Errorf("TTL = %d, want default 64", p.IP.TTL)
	}
}

func TestSACKBlocksRoundTrip(t *testing.T) {
	blocks := []SACKBlock{{Left: 100, Right: 200}, {Left: 300, Right: 450}}
	tcp := &TCPHeader{SrcPort: 80, DstPort: 4000, Flags: FlagACK, Options: []TCPOption{SACKOption(blocks)}}
	raw := mustEncodeTCP(t, &IPv4Header{Src: serverAddr, Dst: probeAddr}, tcp, nil)
	p, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got := p.TCP.SACKBlocks()
	if len(got) != 2 || got[0] != blocks[0] || got[1] != blocks[1] {
		t.Errorf("SACK blocks = %v, want %v", got, blocks)
	}
}

func TestSACKOptionTruncatesToFour(t *testing.T) {
	blocks := make([]SACKBlock, 6)
	for i := range blocks {
		blocks[i] = SACKBlock{Left: uint32(i * 10), Right: uint32(i*10 + 5)}
	}
	o := SACKOption(blocks)
	if len(o.Data) != 32 {
		t.Errorf("SACK option data = %d bytes, want 32 (4 blocks)", len(o.Data))
	}
}

func corrupt(t *testing.T, raw []byte, i int) []byte {
	t.Helper()
	c := append([]byte(nil), raw...)
	c[i] ^= 0x40
	return c
}

func TestBitFlipDetected(t *testing.T) {
	tcp := &TCPHeader{SrcPort: 1000, DstPort: 80, Seq: 42, Flags: FlagACK, Window: 100}
	raw := mustEncodeTCP(t, &IPv4Header{Src: probeAddr, Dst: serverAddr, ID: 7}, tcp, []byte("xy"))
	// Flipping any single bit of any byte must be detected by a checksum
	// (or structural validation) — this is what lets the simulated network
	// carry real octets credibly.
	for i := range raw {
		if _, err := Decode(corrupt(t, raw, i)); err == nil {
			t.Errorf("bit flip at byte %d went undetected", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := mustEncodeTCP(t, &IPv4Header{Src: probeAddr, Dst: serverAddr}, &TCPHeader{SrcPort: 1, DstPort: 2}, nil)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short ip", valid[:10], ErrTruncated},
		{"short tcp", rechecksum(valid[:24]), ErrTruncated},
		{"ipv6 version", withByte(valid, 0, 0x65), ErrBadVersion},
		{"options ihl", rechecksum(withByte(valid, 0, 0x46)), ErrBadHeader},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if !errors.Is(err, tc.want) {
				t.Errorf("Decode error = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeUnsupportedProtocol(t *testing.T) {
	raw := mustEncodeTCP(t, &IPv4Header{Src: probeAddr, Dst: serverAddr}, &TCPHeader{SrcPort: 1, DstPort: 2}, nil)
	raw = withByte(raw, 9, 47) // GRE: neither decoder handles it
	raw = rechecksum(raw)
	_, err := Decode(raw)
	check := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBadHeader) || !strings.Contains(err.Error(), "protocol 47") {
			t.Errorf("%s(protocol 47) error = %v, want ErrBadHeader naming the protocol", name, err)
		}
	}
	check("Decode", err)
	check("DecodeInto", DecodeInto(&Packet{}, raw))
}

// withByte returns a copy of b with b[i] = v.
func withByte(b []byte, i int, v byte) []byte {
	c := append([]byte(nil), b...)
	c[i] = v
	return c
}

// rechecksum fixes the IPv4 header checksum of a (possibly mutated) frame so
// that the error under test, not the checksum, is what the decoder sees.
func rechecksum(b []byte) []byte {
	c := append([]byte(nil), b...)
	if len(c) < 20 {
		return c
	}
	c[10], c[11] = 0, 0
	s := Checksum(c[:20])
	c[10], c[11] = byte(s>>8), byte(s)
	return c
}

func TestEncodeRejectsNonIPv4(t *testing.T) {
	v6 := netip.MustParseAddr("::1")
	_, err := AppendTCP(nil, &IPv4Header{Src: v6, Dst: serverAddr}, &TCPHeader{}, nil)
	if !errors.Is(err, ErrBadHeader) {
		t.Errorf("AppendTCP(nil, v6 src) error = %v, want ErrBadHeader", err)
	}
}

func TestEncodeRejectsOversizedOptions(t *testing.T) {
	var opts []TCPOption
	for i := 0; i < 11; i++ {
		opts = append(opts, MSSOption(1460)) // 4 bytes each; 44 > 40 limit
	}
	_, err := AppendTCP(nil, &IPv4Header{Src: probeAddr, Dst: serverAddr}, &TCPHeader{Options: opts}, nil)
	if !errors.Is(err, ErrBadHeader) {
		t.Errorf("oversized options error = %v, want ErrBadHeader", err)
	}
}

func TestFlowKey(t *testing.T) {
	tcp := &TCPHeader{SrcPort: 43210, DstPort: 80}
	raw := mustEncodeTCP(t, &IPv4Header{Src: probeAddr, Dst: serverAddr}, tcp, nil)
	p, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	k := p.Flow()
	if k.Src != probeAddr || k.SrcPort != 43210 || k.Dst != serverAddr || k.DstPort != 80 || k.Proto != ProtoTCP {
		t.Errorf("flow = %v", k)
	}
	r := k.Reverse()
	if r.Src != serverAddr || r.SrcPort != 80 || r.Dst != probeAddr || r.DstPort != 43210 {
		t.Errorf("reverse = %v", r)
	}
	if r.Reverse() != k {
		t.Error("Reverse is not an involution")
	}
}

func TestPeekFlowMatchesDecode(t *testing.T) {
	tcp := &TCPHeader{SrcPort: 5555, DstPort: 80, Flags: FlagSYN}
	raw := mustEncodeTCP(t, &IPv4Header{Src: probeAddr, Dst: serverAddr}, tcp, nil)
	pk, ok := PeekFlow(raw)
	if !ok {
		t.Fatal("PeekFlow failed")
	}
	p, _ := Decode(raw)
	if pk != p.Flow() {
		t.Errorf("PeekFlow = %v, Decode flow = %v", pk, p.Flow())
	}
	if _, ok := PeekFlow(raw[:8]); ok {
		t.Error("PeekFlow accepted a truncated frame")
	}
}

func TestFlowHashStableAndDirectional(t *testing.T) {
	k := FlowKey{Src: probeAddr, Dst: serverAddr, SrcPort: 1, DstPort: 2, Proto: ProtoTCP}
	if k.Hash() != k.Hash() {
		t.Error("hash not stable")
	}
	if k.Hash() == k.Reverse().Hash() {
		t.Error("directional flows should hash differently (load balancer keys on forward tuple)")
	}
}

func TestSummaryContainsEssentials(t *testing.T) {
	tcp := &TCPHeader{SrcPort: 1, DstPort: 80, Seq: 5, Ack: 6, Flags: FlagSYN | FlagACK}
	raw := mustEncodeTCP(t, &IPv4Header{Src: probeAddr, Dst: serverAddr, ID: 321}, tcp, nil)
	p, _ := Decode(raw)
	s := p.Summary()
	for _, want := range []string{"seq=5", "ack=6", "ipid=321", "S."} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary %q missing %q", s, want)
		}
	}
}

// Property: every encodable TCP packet round-trips exactly.
func TestQuickTCPRoundTrip(t *testing.T) {
	f := func(id uint16, sport, dport uint16, seq, ack uint32, flags uint8, win uint16, mss uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		tcp := &TCPHeader{
			SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack,
			Flags: flags & 0x3f, Window: win,
			Options: []TCPOption{MSSOption(mss)},
		}
		raw, err := AppendTCP(nil, &IPv4Header{Src: probeAddr, Dst: serverAddr, ID: id}, tcp, payload)
		if err != nil {
			return false
		}
		p, err := Decode(raw)
		if err != nil {
			return false
		}
		gotMSS, _ := p.TCP.MSS()
		return p.IP.ID == id && p.TCP.SrcPort == sport && p.TCP.DstPort == dport &&
			p.TCP.Seq == seq && p.TCP.Ack == ack && p.TCP.Flags == flags&0x3f &&
			p.TCP.Window == win && gotMSS == mss && bytes.Equal(p.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: checksum of data concatenated with its own checksum verifies to
// zero — the standard receiver-side check.
func TestQuickChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		c := Checksum(data)
		withSum := append(append([]byte(nil), data...), byte(c>>8), byte(c))
		return Checksum(withSum) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, checksum 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Errorf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Trailing odd byte pads with zero: {0xff} == {0xff, 0x00}.
	if Checksum([]byte{0xff}) != Checksum([]byte{0xff, 0x00}) {
		t.Error("odd-length padding mismatch")
	}
}

func TestSeqComparisons(t *testing.T) {
	cases := []struct {
		a, b uint32
		lt   bool
	}{
		{1, 2, true},
		{2, 1, false},
		{5, 5, false},
		{0xffffffff, 0, true},  // wraparound
		{0, 0xffffffff, false}, // wraparound
		{0x7fffffff, 0x80000000, true},
	}
	for _, c := range cases {
		if SeqLT(c.a, c.b) != c.lt {
			t.Errorf("SeqLT(%#x, %#x) = %v, want %v", c.a, c.b, !c.lt, c.lt)
		}
	}
	if !SeqLEQ(5, 5) || SeqGT(5, 5) || !SeqGEQ(5, 5) {
		t.Error("equality comparisons wrong")
	}
	if SeqMax(0xffffffff, 1) != 1 || SeqMin(0xffffffff, 1) != 0xffffffff {
		t.Error("SeqMax/SeqMin wraparound wrong")
	}
}

func TestSeqInWindow(t *testing.T) {
	if !SeqInWindow(10, 10, 5) || !SeqInWindow(14, 10, 5) || SeqInWindow(15, 10, 5) || SeqInWindow(9, 10, 5) {
		t.Error("window bounds wrong")
	}
	if SeqInWindow(10, 10, 0) {
		t.Error("zero window must contain nothing")
	}
	// Wraparound window.
	if !SeqInWindow(2, 0xfffffffe, 10) {
		t.Error("wraparound window membership wrong")
	}
}

// Property: trichotomy of sequence comparison for distances under 2^31.
func TestQuickSeqTrichotomy(t *testing.T) {
	f := func(a uint32, d uint32) bool {
		d %= 1 << 30
		b := a + d
		switch {
		case d == 0:
			return !SeqLT(a, b) && !SeqGT(a, b) && SeqLEQ(a, b) && SeqGEQ(a, b)
		default:
			return SeqLT(a, b) && SeqGT(b, a) && !SeqLT(b, a)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestIPIDComparisons(t *testing.T) {
	if !IPIDLess(1, 2) || IPIDLess(2, 1) {
		t.Error("basic IPID compare wrong")
	}
	if !IPIDLess(0xffff, 3) {
		t.Error("IPID wraparound compare wrong")
	}
	if IPIDDiff(5, 3) != 2 || IPIDDiff(2, 0xffff) != 3 {
		t.Error("IPIDDiff wrong")
	}
}

func TestFlagString(t *testing.T) {
	cases := []struct {
		flags uint8
		want  string
	}{
		{FlagSYN, "S"},
		{FlagSYN | FlagACK, "S."},
		{FlagRST, "R"},
		{FlagPSH | FlagACK, "P."},
		{FlagFIN | FlagACK, "F."},
		{FlagURG, "U"},
		{0, "none"},
	}
	for _, c := range cases {
		h := &TCPHeader{Flags: c.flags}
		if got := h.FlagString(); got != c.want {
			t.Errorf("FlagString(%#x) = %q, want %q", c.flags, got, c.want)
		}
	}
}

func TestDecodeFuzzNoCrash(t *testing.T) {
	// The decoder must reject garbage gracefully, never panic.
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 2000; i++ {
		n := rng.IntN(120)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		_, _ = Decode(b) //nolint:errcheck // exercising robustness only
	}
}

func BenchmarkEncodeTCP(b *testing.B) {
	ip := &IPv4Header{Src: probeAddr, Dst: serverAddr, ID: 1}
	tcp := &TCPHeader{SrcPort: 1000, DstPort: 80, Seq: 1, Ack: 1, Flags: FlagACK, Window: 65535,
		Options: []TCPOption{MSSOption(1460)}}
	payload := bytes.Repeat([]byte{0xaa}, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendTCP(nil, ip, tcp, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	ip := &IPv4Header{Src: probeAddr, Dst: serverAddr, ID: 1}
	tcp := &TCPHeader{SrcPort: 1000, DstPort: 80, Seq: 1, Ack: 1, Flags: FlagACK, Window: 65535}
	raw, err := AppendTCP(nil, ip, tcp, bytes.Repeat([]byte{0xaa}, 512))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUDPRoundTrip(t *testing.T) {
	ip := &IPv4Header{Src: probeAddr, Dst: serverAddr, ID: 55}
	udp := &UDPHeader{SrcPort: 5000, DstPort: 8620}
	payload := []byte("ippm test packet")
	raw, err := EncodeUDP(ip, udp, payload)
	if err != nil {
		t.Fatalf("EncodeUDP: %v", err)
	}
	p, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.UDP == nil || p.UDP.SrcPort != 5000 || p.UDP.DstPort != 8620 {
		t.Fatalf("UDP header: %+v", p.UDP)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload = %q", p.Payload)
	}
	if int(p.UDP.Length) != 8+len(payload) {
		t.Fatalf("Length = %d", p.UDP.Length)
	}
	k := p.Flow()
	if k.Proto != ProtoUDP || k.SrcPort != 5000 || k.DstPort != 8620 {
		t.Fatalf("flow = %v", k)
	}
	if !strings.Contains(p.Summary(), "UDP") {
		t.Fatalf("Summary = %q", p.Summary())
	}
}

func TestUDPBitFlipDetected(t *testing.T) {
	raw, err := EncodeUDP(&IPv4Header{Src: probeAddr, Dst: serverAddr},
		&UDPHeader{SrcPort: 1, DstPort: 2}, []byte("xyzw"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if _, err := Decode(corrupt(t, raw, i)); err == nil {
			t.Errorf("bit flip at byte %d went undetected", i)
		}
	}
}

func TestUDPZeroChecksumAccepted(t *testing.T) {
	raw, err := EncodeUDP(&IPv4Header{Src: probeAddr, Dst: serverAddr},
		&UDPHeader{SrcPort: 9, DstPort: 10}, []byte("no-checksum"))
	if err != nil {
		t.Fatal(err)
	}
	// Zero the UDP checksum (sender opt-out) — the decoder must accept.
	raw[26], raw[27] = 0, 0
	if _, err := Decode(raw); err != nil {
		t.Fatalf("zero-checksum UDP rejected: %v", err)
	}
}

func TestQuickUDPRoundTrip(t *testing.T) {
	f := func(sport, dport uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		raw, err := EncodeUDP(&IPv4Header{Src: probeAddr, Dst: serverAddr},
			&UDPHeader{SrcPort: sport, DstPort: dport}, payload)
		if err != nil {
			return false
		}
		p, err := Decode(raw)
		if err != nil {
			return false
		}
		return p.UDP.SrcPort == sport && p.UDP.DstPort == dport && bytes.Equal(p.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
