package packet

import (
	"fmt"
	"net/netip"
)

// Packet is a fully decoded IPv4 datagram. Exactly one of TCP, UDP or ICMP
// is non-nil, according to IP.Protocol.
type Packet struct {
	IP      IPv4Header
	TCP     *TCPHeader
	UDP     *UDPHeader
	ICMP    *ICMPEcho
	Payload []byte // transport payload (TCP/UDP data); for ICMP see ICMP.Payload
	WireLen int    // length of the datagram as captured
}

// Decode parses a raw IPv4 datagram, verifying the IP header checksum and
// the transport checksum. Protocols other than TCP, UDP and ICMP are
// rejected.
func Decode(data []byte) (*Packet, error) {
	ip, transport, err := decodeIPv4(data)
	if err != nil {
		return nil, err
	}
	p := &Packet{IP: ip, WireLen: int(ip.TotalLen)}
	src, dst := ip.Src.As4(), ip.Dst.As4()
	switch ip.Protocol {
	case ProtoTCP:
		tcp, payload, err := decodeTCP(src, dst, transport)
		if err != nil {
			return nil, err
		}
		p.TCP = tcp
		p.Payload = payload
	case ProtoUDP:
		udp, payload, err := decodeUDP(src, dst, transport)
		if err != nil {
			return nil, err
		}
		p.UDP = udp
		p.Payload = payload
	case ProtoICMP:
		icmp, err := decodeICMP(transport)
		if err != nil {
			return nil, err
		}
		p.ICMP = icmp
	default:
		return nil, badProtoErr(ip.Protocol)
	}
	return p, nil
}

func badProtoErr(proto uint8) error {
	return fmt.Errorf("%w: protocol %d", ErrBadHeader, proto)
}

// FlowKey identifies a transport flow by the classic 4-tuple plus protocol.
// It is comparable and usable as a map key. For ICMP the ports carry the
// echo identifier in SrcPort and zero in DstPort.
type FlowKey struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// Reverse returns the key of the opposite direction of the same flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// String renders the key as "src:sport > dst:dport/proto".
func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d > %s:%d/%d", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

// Hash returns a 64-bit FNV-1a hash of the key. Load balancers in the
// network model hash the forward-direction tuple, which is exactly how a
// per-flow balancer keeps both SYN-test packets on one backend.
func (k FlowKey) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	s, d := k.Src.As4(), k.Dst.As4()
	for _, b := range s {
		mix(b)
	}
	for _, b := range d {
		mix(b)
	}
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	mix(k.Proto)
	return h
}

// Flow extracts the flow key of a decoded packet.
func (p *Packet) Flow() FlowKey {
	k := FlowKey{Src: p.IP.Src, Dst: p.IP.Dst, Proto: p.IP.Protocol}
	switch {
	case p.TCP != nil:
		k.SrcPort = p.TCP.SrcPort
		k.DstPort = p.TCP.DstPort
	case p.UDP != nil:
		k.SrcPort = p.UDP.SrcPort
		k.DstPort = p.UDP.DstPort
	case p.ICMP != nil:
		k.SrcPort = p.ICMP.Ident
	}
	return k
}

// PeekFlow extracts a flow key from a raw datagram without full validation.
// Network elements (load balancers, taps) use it to classify frames cheaply;
// it does not verify checksums. The ok result is false if the frame is too
// short to classify.
func PeekFlow(data []byte) (FlowKey, bool) {
	if len(data) < ipv4HeaderLen {
		return FlowKey{}, false
	}
	if data[0]>>4 != 4 || int(data[0]&0x0f)*4 != ipv4HeaderLen {
		return FlowKey{}, false
	}
	k := FlowKey{
		Src:   netip.AddrFrom4([4]byte(data[12:16])),
		Dst:   netip.AddrFrom4([4]byte(data[16:20])),
		Proto: data[9],
	}
	switch k.Proto {
	case ProtoTCP, ProtoUDP:
		if len(data) < ipv4HeaderLen+4 {
			return FlowKey{}, false
		}
		k.SrcPort = uint16(data[20])<<8 | uint16(data[21])
		k.DstPort = uint16(data[22])<<8 | uint16(data[23])
	case ProtoICMP:
		if len(data) >= ipv4HeaderLen+6 {
			k.SrcPort = uint16(data[24])<<8 | uint16(data[25])
		}
	}
	return k, true
}

// Summary renders a one-line tcpdump-flavored description of the packet,
// used by traces and debug output.
func (p *Packet) Summary() string {
	switch {
	case p.UDP != nil:
		return fmt.Sprintf("%s:%d > %s:%d UDP len=%d ipid=%d",
			p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort, len(p.Payload), p.IP.ID)
	case p.TCP != nil:
		return fmt.Sprintf("%s:%d > %s:%d [%s] seq=%d ack=%d win=%d len=%d ipid=%d",
			p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort,
			p.TCP.FlagString(), p.TCP.Seq, p.TCP.Ack, p.TCP.Window, len(p.Payload), p.IP.ID)
	case p.ICMP != nil:
		kind := "echo-reply"
		if p.ICMP.IsRequest() {
			kind = "echo-request"
		}
		return fmt.Sprintf("%s > %s %s id=%d seq=%d len=%d ipid=%d",
			p.IP.Src, p.IP.Dst, kind, p.ICMP.Ident, p.ICMP.Seq, len(p.ICMP.Payload), p.IP.ID)
	default:
		return fmt.Sprintf("%s > %s proto=%d", p.IP.Src, p.IP.Dst, p.IP.Protocol)
	}
}
