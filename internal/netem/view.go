package netem

import (
	"reorder/internal/packet"
	"reorder/internal/sim"
)

// DebugForceMaterialize, when set, makes every view-built frame encode its
// wire bytes eagerly and drop the view, forcing the whole simulation onto
// the byte/decode path. It exists for differential testing — campaign
// output must be byte-identical with views on and off — and must only be
// toggled while no simulation is running.
var DebugForceMaterialize = false

// FrameView is the decoded form of a datagram, attached to a Frame at
// transmission so pass-through network elements and the receiving stack
// never pay an encode/decode round trip. Views are arena-owned: headers
// are stored by value, TCP options and payload in arena (or view-inline)
// storage, all valid until the owning arena resets.
//
// A view is always checksum-valid by construction — it only exists for
// datagrams a sender built, never for bytes of unknown provenance — so the
// IP, TCP and ICMP Checksum fields are left zero; nothing outside the
// codec's own tests reads them. Every other field holds exactly what
// decoding the materialized wire bytes would produce.
type FrameView struct {
	IP   packet.IPv4Header
	TCP  packet.TCPHeader // valid when IP.Protocol == packet.ProtoTCP
	ICMP packet.ICMPEcho  // valid when IP.Protocol == packet.ProtoICMP

	// Payload is the transport payload (TCP data; for ICMP see
	// ICMP.Payload): arena-owned, or the sender's own read-only bytes when
	// the frame was built with NewTCPFrameShared. Read-only either way.
	Payload []byte

	wireLen int
	// opts and optData hold the deep-copied TCP options inline: at most
	// four options (MSS, SACK-permitted, two NOPs plus a three-block SACK
	// are the worst emitted set) and their data bytes.
	opts    [4]packet.TCPOption
	optData [40]byte
}

// WireLen returns the length the datagram has (or will have) on the wire.
func (v *FrameView) WireLen() int { return v.wireLen }

// Flow returns the datagram's flow key — what load balancers and host
// demultiplexers would otherwise PeekFlow the wire bytes for. It is
// assembled from the already-parsed headers; no bytes are touched.
func (v *FrameView) Flow() packet.FlowKey {
	k := packet.FlowKey{Src: v.IP.Src, Dst: v.IP.Dst, Proto: v.IP.Protocol}
	switch v.IP.Protocol {
	case packet.ProtoTCP:
		k.SrcPort, k.DstPort = v.TCP.SrcPort, v.TCP.DstPort
	case packet.ProtoICMP:
		k.SrcPort = v.ICMP.Ident
	}
	return k
}

// ToPacket copies the view into a caller-owned decoded packet, reusing its
// transport header structs and option storage exactly as packet.DecodeInto
// does. Option data and payload alias the view's storage, which lives as
// long as wire bytes would — until the owning arena resets.
func (v *FrameView) ToPacket(p *packet.Packet) {
	p.IP = v.IP
	p.WireLen = v.wireLen
	p.Payload = nil
	switch v.IP.Protocol {
	case packet.ProtoTCP:
		p.UDP, p.ICMP = nil, nil
		if p.TCP == nil {
			p.TCP = new(packet.TCPHeader)
		}
		opts := p.TCP.Options[:0]
		*p.TCP = v.TCP
		p.TCP.Options = append(opts, v.TCP.Options...)
		p.Payload = v.Payload
	case packet.ProtoICMP:
		p.TCP, p.UDP = nil, nil
		if p.ICMP == nil {
			p.ICMP = new(packet.ICMPEcho)
		}
		*p.ICMP = v.ICMP
	default:
		// No view builder produces other protocols; sever every transport
		// pointer so a stale previous decode can never leak through.
		p.TCP, p.UDP, p.ICMP = nil, nil, nil
	}
}

// NewTCPFrame builds a frame carrying an IPv4+TCP datagram in decoded form:
// the headers and payload are copied into arena-owned view storage and no
// wire bytes are produced until something materializes them. Validation
// matches packet.AppendTCP, and the header normalization (protocol, total
// length, default TTL) matches what an encode/decode round trip would
// yield, so consumers of the view see exactly what decoders would. Callers
// may reuse ip, tcp and payload immediately.
func (a *Arena) NewTCPFrame(id uint64, born sim.Time, ip *packet.IPv4Header, tcp *packet.TCPHeader, payload []byte) (*Frame, error) {
	return a.newTCPFrame(id, born, ip, tcp, payload, false)
}

// NewTCPFrameShared is NewTCPFrame for a payload that is never written
// again, by the caller or anyone else, for as long as the frame may be
// reachable (a slice of a table filled once at start-up): the view refers
// to those bytes instead of copying them. Nothing downstream can tell the
// difference, because frame contents are immutable once attached — elements
// that alter bytes build a new frame from a copy — and that same rule is
// what keeps the caller's bytes intact.
func (a *Arena) NewTCPFrameShared(id uint64, born sim.Time, ip *packet.IPv4Header, tcp *packet.TCPHeader, payload []byte) (*Frame, error) {
	return a.newTCPFrame(id, born, ip, tcp, payload, true)
}

// MaxTCPPayload is the most TCP payload an IPv4 datagram carries: no
// segment, whatever the MSS, can be built with more.
const MaxTCPPayload = 0xffff - ipv4WireLen - tcpWireLen

// PayloadTable is a synthetic payload byte stream — byte base + q%period at
// sequence number q — laid out for NewTCPFrameShared around the one place
// the stream need not be periodic: sequence numbers wrap at 2^32, and at
// period 25, say, 2^32 mod 25 = 21, so base+20 at sequence 2^32-1 is
// followed by base+0, not base+21. t[MaxTCPPayload+j] is the byte at
// sequence j and t[MaxTCPPayload-k] the byte at sequence 2^32-k, so any
// segment's payload, wrapping or not, is one contiguous slice. A table is
// read-only once built: frames in every simulation of the process share it.
type PayloadTable []byte

// NewPayloadTable builds the table of the stream base + q%period.
func NewPayloadTable(base byte, period uint32) PayloadTable {
	t := make(PayloadTable, 2*MaxTCPPayload+period)
	for i := range t {
		q := uint32(i - MaxTCPPayload) // negative offsets wrap like sequence numbers
		t[i] = base + byte(q%period)
	}
	return t
}

// Slice returns the n <= MaxTCPPayload bytes of the stream starting at
// sequence number seq, as a read-only slice of t.
func (t PayloadTable) Slice(seq, n uint32) []byte {
	period := uint32(len(t) - 2*MaxTCPPayload) // as NewPayloadTable sized it
	off := MaxTCPPayload + seq%period
	if k := -seq; k < n {
		off = MaxTCPPayload - k // the segment crosses the wrap k bytes in
	}
	return t[off : off+n]
}

// newTCPFrame builds the frame for both constructors; shared says whether
// the view may keep payload itself.
func (a *Arena) newTCPFrame(id uint64, born sim.Time, ip *packet.IPv4Header, tcp *packet.TCPHeader, payload []byte, shared bool) (*Frame, error) {
	optLen, err := tcp.OptionsWireLen()
	if err != nil {
		return nil, err
	}
	total := ipv4WireLen + tcpWireLen + optLen + len(payload)
	if err := checkIPHeader(ip, total); err != nil {
		return nil, err
	}
	v := a.newView()
	v.IP = *ip
	v.IP.Protocol = packet.ProtoTCP
	v.IP.TotalLen = uint16(total)
	v.IP.Checksum = 0
	if v.IP.TTL == 0 {
		v.IP.TTL = 64
	}
	if !v.copyOptions(tcp.Options) {
		// Exotic option sets that exceed the inline storage fall back to
		// an eagerly encoded frame — correct, merely not zero-copy.
		return a.encodedTCPFrame(id, born, ip, tcp, payload, total)
	}
	// Field-wise copy: a struct assignment would also write (and then
	// rewrite) the Options pointer, paying a write barrier for nothing.
	v.TCP.SrcPort, v.TCP.DstPort = tcp.SrcPort, tcp.DstPort
	v.TCP.Seq, v.TCP.Ack = tcp.Seq, tcp.Ack
	v.TCP.Flags, v.TCP.Window, v.TCP.Urgent = tcp.Flags, tcp.Window, tcp.Urgent
	v.TCP.Checksum = 0
	if shared && len(payload) > 0 {
		v.Payload = payload
	} else {
		v.Payload = a.CopyBytes(payload)
	}
	v.wireLen = total
	return a.viewFrame(id, born, v), nil
}

// NewICMPFrame is NewTCPFrame for an ICMP echo datagram.
func (a *Arena) NewICMPFrame(id uint64, born sim.Time, ip *packet.IPv4Header, echo *packet.ICMPEcho) (*Frame, error) {
	total := ipv4WireLen + icmpWireLen + len(echo.Payload)
	if err := checkIPHeader(ip, total); err != nil {
		return nil, err
	}
	v := a.newView()
	v.IP = *ip
	v.IP.Protocol = packet.ProtoICMP
	v.IP.TotalLen = uint16(total)
	v.IP.Checksum = 0
	if v.IP.TTL == 0 {
		v.IP.TTL = 64
	}
	v.ICMP = *echo
	v.ICMP.Checksum = 0
	v.ICMP.Payload = a.CopyBytes(echo.Payload)
	v.Payload = nil
	v.TCP = packet.TCPHeader{}
	v.wireLen = total
	return a.viewFrame(id, born, v), nil
}

// viewFrame wraps a completed view in a frame and writes the frame's routing
// header from it (the builders have checked that the destination is IPv4),
// honoring the differential force-materialize debug mode.
func (a *Arena) viewFrame(id uint64, born sim.Time, v *FrameView) *Frame {
	f := a.NewFrame(id, nil, born)
	f.view = v
	if DebugForceMaterialize {
		f.Materialize()
		f.view = nil
		return f
	}
	f.dst, f.wireLen = addrWord(v.IP.Dst), uint32(v.wireLen)
	return f
}

// encodedTCPFrame is the non-view fallback: encode eagerly into arena
// bytes, exactly what senders did before views existed.
func (a *Arena) encodedTCPFrame(id uint64, born sim.Time, ip *packet.IPv4Header, tcp *packet.TCPHeader, payload []byte, total int) (*Frame, error) {
	buf, err := packet.AppendTCP(a.Alloc(total), ip, tcp, payload)
	if err != nil {
		return nil, err
	}
	return a.NewFrame(id, buf, born), nil
}

// copyOptions deep-copies the option list into the view's inline storage,
// reporting false when it does not fit.
func (v *FrameView) copyOptions(opts []packet.TCPOption) bool {
	if len(opts) > len(v.opts) {
		return false
	}
	od := v.optData[:0]
	for i, o := range opts {
		v.opts[i] = packet.TCPOption{Kind: o.Kind}
		if n := len(o.Data); n > 0 {
			if len(od)+n > cap(od) {
				return false
			}
			start := len(od)
			od = append(od, o.Data...)
			v.opts[i].Data = od[start:len(od):len(od)]
		}
	}
	v.TCP.Options = v.opts[:len(opts)]
	return true
}

// checkIPHeader applies the validation packet.AppendTCP/AppendICMP would.
func checkIPHeader(ip *packet.IPv4Header, total int) error {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return packet.ErrBadHeader
	}
	if total > 0xffff {
		return packet.ErrBadHeader
	}
	return nil
}

// Wire sizes mirrored from the packet codec (IPv4 and TCP base headers,
// ICMP echo header).
const (
	ipv4WireLen = 20
	tcpWireLen  = 20
	icmpWireLen = 8
)
