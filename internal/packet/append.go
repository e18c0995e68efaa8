package packet

// Append/scratch codec variants. The probe engine sends and receives
// millions of small datagrams per campaign; these entry points let hot
// paths reuse one buffer (encode) and one decoded-header set (decode)
// instead of allocating per segment. AppendTCP(nil, …) and
// AppendICMP(nil, …) are the allocating encoders.

// AppendTCP appends a complete IPv4+TCP datagram to dst and returns the
// extended slice. ip.TotalLen, checksums and the TCP data offset are
// computed; ip.Protocol is forced to TCP. dst may be nil.
func AppendTCP(dst []byte, ip *IPv4Header, tcp *TCPHeader, payload []byte) ([]byte, error) {
	optLen, err := tcp.optionsWireLen()
	if err != nil {
		return dst, err
	}
	segLen := tcpBaseHeaderLen + optLen + len(payload)
	total := ipv4HeaderLen + segLen
	base := len(dst)
	dst = grow(dst, total) // every byte is written below; no zeroing needed
	buf := dst[base:]
	ip.Protocol = ProtoTCP
	if err := ip.marshalInto(buf, total); err != nil {
		return dst[:base], err
	}
	seg := buf[ipv4HeaderLen:]
	tcp.marshalInto(seg, optLen)
	copy(seg[tcpBaseHeaderLen+optLen:], payload)
	src, dstAddr := ip.Src.As4(), ip.Dst.As4()
	csum := transportChecksum(src, dstAddr, ProtoTCP, seg)
	seg[16] = byte(csum >> 8)
	seg[17] = byte(csum)
	return dst, nil
}

// grow extends dst by n bytes without zeroing when capacity allows. The
// callers overwrite the entire extension.
func grow(dst []byte, n int) []byte {
	if len(dst)+n <= cap(dst) {
		return dst[:len(dst)+n]
	}
	return append(dst, make([]byte, n)...)
}

// AppendICMP appends a complete IPv4+ICMP echo datagram to dst and returns
// the extended slice. ip.Protocol is forced to ICMP.
func AppendICMP(dst []byte, ip *IPv4Header, echo *ICMPEcho) ([]byte, error) {
	segLen := icmpHeaderLen + len(echo.Payload)
	total := ipv4HeaderLen + segLen
	base := len(dst)
	dst = grow(dst, total) // every byte is written below; no zeroing needed
	buf := dst[base:]
	ip.Protocol = ProtoICMP
	if err := ip.marshalInto(buf, total); err != nil {
		return dst[:base], err
	}
	echo.marshalInto(buf[ipv4HeaderLen:])
	return dst, nil
}

// DecodeInto parses a raw IPv4 datagram into p, reusing p's transport
// header structs and option storage across calls: a zeroed Packet works,
// and a Packet that has been through DecodeInto before decodes without
// allocating. Unlike Decode, the decoded payload and option data alias
// data — the caller owns data's lifetime and must not mutate it while the
// decoded packet is in use. Validation is identical to Decode.
func DecodeInto(p *Packet, data []byte) error {
	ip, transport, err := decodeIPv4(data)
	if err != nil {
		return err
	}
	p.IP = ip
	p.WireLen = int(ip.TotalLen)
	p.Payload = nil
	src, dst := ip.Src.As4(), ip.Dst.As4()
	switch ip.Protocol {
	case ProtoTCP:
		p.UDP, p.ICMP = nil, nil
		if p.TCP == nil {
			p.TCP = new(TCPHeader)
		}
		payload, err := decodeTCPInto(p.TCP, src, dst, transport, false)
		if err != nil {
			p.TCP.Options = p.TCP.Options[:0]
			return err
		}
		p.Payload = payload
	case ProtoUDP:
		p.TCP, p.ICMP = nil, nil
		if p.UDP == nil {
			p.UDP = new(UDPHeader)
		}
		payload, err := decodeUDPInto(p.UDP, src, dst, transport)
		if err != nil {
			return err
		}
		p.Payload = payload
	case ProtoICMP:
		p.TCP, p.UDP = nil, nil
		if p.ICMP == nil {
			p.ICMP = new(ICMPEcho)
		}
		if err := decodeICMPInto(p.ICMP, transport); err != nil {
			return err
		}
	default:
		return badProtoErr(ip.Protocol)
	}
	return nil
}
