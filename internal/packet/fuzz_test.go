package packet

import (
	"bytes"
	"testing"
)

// Go-native fuzz targets; `go test` runs the seed corpus, and `go test
// -fuzz=FuzzDecode ./internal/packet` explores further. The decoder and
// the reassembler must never panic and must uphold their validation
// promises on arbitrary input.

func FuzzDecode(f *testing.F) {
	valid, _ := AppendTCP(nil, &IPv4Header{Src: probeAddr, Dst: serverAddr, ID: 7},
		&TCPHeader{SrcPort: 1000, DstPort: 80, Seq: 42, Flags: FlagACK, Window: 100,
			Options: []TCPOption{MSSOption(1460), SACKPermittedOption()}},
		[]byte("payload"))
	f.Add(valid)
	icmp, _ := AppendICMP(nil, &IPv4Header{Src: probeAddr, Dst: serverAddr},
		&ICMPEcho{Type: ICMPEchoRequest, Ident: 1, Seq: 2, Payload: []byte{1, 2, 3}})
	f.Add(icmp)
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		// Anything the decoder accepts must re-encode (semantically: the
		// encoder normalizes TTL 0 and option padding) and re-decode to
		// the same packet.
		var back []byte
		switch {
		case p.TCP != nil:
			ip := p.IP
			back, err = AppendTCP(nil, &ip, p.TCP, p.Payload)
		case p.ICMP != nil:
			ip := p.IP
			back, err = AppendICMP(nil, &ip, p.ICMP)
		default:
			t.Fatal("accepted packet with no transport layer")
		}
		if err != nil {
			t.Fatalf("accepted packet does not re-encode: %v", err)
		}
		q, err := Decode(back)
		if err != nil {
			t.Fatalf("re-encoded packet does not decode: %v", err)
		}
		if q.Summary() != p.Summary() {
			t.Fatalf("roundtrip changed the packet:\n in  %s\n out %s", p.Summary(), q.Summary())
		}
		if p.TCP != nil && !bytes.Equal(q.Payload, p.Payload) {
			t.Fatal("roundtrip changed the payload")
		}
	})
}

func FuzzReassembler(f *testing.F) {
	d := make([]byte, 0)
	{
		payload := make([]byte, 900)
		raw, _ := AppendTCP(nil, &IPv4Header{Src: probeAddr, Dst: serverAddr, ID: 3},
			&TCPHeader{SrcPort: 1, DstPort: 2, Flags: FlagACK}, payload)
		frags, _ := Fragment(raw, 576)
		for _, fr := range frags {
			d = append(d, fr...)
		}
		f.Add(d, uint8(2))
	}
	f.Add([]byte{0x45, 0x00}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, chunks uint8) {
		n := int(chunks%8) + 1
		r := NewReassembler()
		// Feed arbitrary slices; must never panic, and any completed
		// datagram must at least carry a well-formed IPv4 header length.
		for i := 0; i+n <= len(data); i += n {
			out, err := r.Input(data[i : i+n])
			if err != nil || out == nil {
				continue
			}
			if len(out) < 20 {
				t.Fatalf("reassembler emitted %d bytes", len(out))
			}
		}
	})
}
