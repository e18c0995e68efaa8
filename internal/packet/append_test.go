package packet

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
)

func appendTestHeaders() (*IPv4Header, *TCPHeader) {
	ip := &IPv4Header{
		Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Dst: netip.AddrFrom4([4]byte{10, 0, 1, 1}),
		ID: 0xbeef, TOS: 0x10, Flags: FlagDF,
	}
	tcp := &TCPHeader{
		SrcPort: 40000, DstPort: 80, Seq: 0x01020304, Ack: 0x0a0b0c0d,
		Flags: FlagACK | FlagPSH, Window: 8192, Urgent: 7,
		Options: []TCPOption{
			MSSOption(1460), SACKPermittedOption(),
			SACKOption([]SACKBlock{{Left: 100, Right: 200}, {Left: 300, Right: 400}}),
		},
	}
	return ip, tcp
}

// TestAppendTCPMatchesEncodeTCP pins AppendTCP after existing content, into
// a destination with stale capacity (the non-zeroing grow path), to
// AppendTCP(nil) byte for byte.
func TestAppendTCPMatchesEncodeTCP(t *testing.T) {
	ip, tcp := appendTestHeaders()
	payload := []byte("hello reordering world")
	want, err := AppendTCP(nil, ip, tcp, payload)
	if err != nil {
		t.Fatal(err)
	}

	// Append after a prefix, into a buffer with dirty retained capacity.
	dirty := bytes.Repeat([]byte{0xff}, 512)[:3]
	dirty[0], dirty[1], dirty[2] = 'a', 'b', 'c'
	got, err := AppendTCP(dirty, ip, tcp, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:3], []byte("abc")) || !bytes.Equal(got[3:], want) {
		t.Fatal("AppendTCP with dirty capacity corrupted output")
	}

	// The result must decode cleanly (checksums included).
	if _, err := Decode(got[3:]); err != nil {
		t.Fatalf("appended datagram does not decode: %v", err)
	}
}

// TestAppendICMPMatchesEncodeICMP pins the ICMP append variant the same way.
func TestAppendICMPMatchesEncodeICMP(t *testing.T) {
	ip := &IPv4Header{Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Dst: netip.AddrFrom4([4]byte{10, 0, 1, 1}), ID: 9}
	echo := &ICMPEcho{Type: ICMPEchoRequest, Ident: 77, Seq: 3, Payload: []byte("ping")}
	want, err := AppendICMP(nil, ip, echo)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendICMP(bytes.Repeat([]byte{0xee}, 256)[:0], ip, echo)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("AppendICMP into dirty capacity differs from AppendICMP(nil):\n% x\n% x", want, got)
	}
}

// TestDecodeIntoMatchesDecode checks the scratch decoder agrees with
// Decode field for field across TCP (with options), UDP and ICMP, and that
// one reused Packet decodes all three in sequence without cross-talk.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	ip, tcp := appendTestHeaders()
	tcpRaw, err := AppendTCP(nil, ip, tcp, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	icmpRaw, err := AppendICMP(nil, &IPv4Header{Src: ip.Src, Dst: ip.Dst, ID: 4},
		&ICMPEcho{Type: ICMPEchoReply, Ident: 8, Seq: 9, Payload: []byte("pong")})
	if err != nil {
		t.Fatal(err)
	}

	var scratch Packet
	for round := 0; round < 3; round++ { // reuse across rounds and protocols
		for _, raw := range [][]byte{tcpRaw, icmpRaw} {
			want, err := Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			if err := DecodeInto(&scratch, raw); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.IP, scratch.IP) {
				t.Fatalf("IP headers differ:\n%+v\n%+v", want.IP, scratch.IP)
			}
			if !bytes.Equal(want.Payload, scratch.Payload) {
				t.Fatalf("payloads differ: %q vs %q", want.Payload, scratch.Payload)
			}
			switch {
			case want.TCP != nil:
				if scratch.TCP == nil || scratch.UDP != nil || scratch.ICMP != nil {
					t.Fatal("DecodeInto set wrong transport for TCP")
				}
				if !reflect.DeepEqual(*want.TCP, *scratch.TCP) {
					t.Fatalf("TCP headers differ:\n%+v\n%+v", *want.TCP, *scratch.TCP)
				}
			case want.ICMP != nil:
				if scratch.ICMP == nil || scratch.TCP != nil || scratch.UDP != nil {
					t.Fatal("DecodeInto set wrong transport for ICMP")
				}
				if !reflect.DeepEqual(*want.ICMP, *scratch.ICMP) {
					t.Fatalf("ICMP messages differ:\n%+v\n%+v", *want.ICMP, *scratch.ICMP)
				}
			}
		}
	}

	// Corrupt input must error exactly like Decode.
	bad := append([]byte(nil), tcpRaw...)
	bad[30] ^= 0xff // flip a TCP header byte: checksum failure
	if _, err := Decode(bad); err == nil {
		t.Fatal("Decode accepted corrupt datagram")
	}
	if err := DecodeInto(&scratch, bad); err == nil {
		t.Fatal("DecodeInto accepted corrupt datagram")
	}
}

// TestDecodeIntoSteadyStateAllocs pins the scratch decoder's allocation
// profile: after the first decode populated the header structs, repeated
// decodes are allocation-free.
func TestDecodeIntoSteadyStateAllocs(t *testing.T) {
	ip, tcp := appendTestHeaders()
	raw, err := AppendTCP(nil, ip, tcp, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	var scratch Packet
	if err := DecodeInto(&scratch, raw); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeInto(&scratch, raw); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("steady-state DecodeInto allocates %.1f objects, want 0", allocs)
	}
}
