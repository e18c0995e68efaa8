package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// IP protocol numbers used by this repository.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// IPv4 header flag bits.
const (
	FlagDF = 0x2 // don't fragment
	FlagMF = 0x1 // more fragments
)

const ipv4HeaderLen = 20

// Errors returned by the decoders.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadChecksum = errors.New("packet: bad checksum")
	ErrBadVersion  = errors.New("packet: not IPv4")
	ErrBadHeader   = errors.New("packet: malformed header")
)

// The checksum failures have constant text, and a corrupting path makes
// them per-frame events every receiver drops unread: built once, not per
// frame.
var (
	errIPv4Checksum = fmt.Errorf("%w: IPv4 header", ErrBadChecksum)
	errTCPChecksum  = fmt.Errorf("%w: TCP segment", ErrBadChecksum)
)

// IPv4Header is a parsed IPv4 header. Options are not supported; no stack or
// tool in this repository emits them, and the decoder rejects packets that
// carry any (IHL > 5) to keep parsing honest rather than silently skipping.
type IPv4Header struct {
	TOS        uint8
	TotalLen   uint16 // filled in on decode; computed on encode
	ID         uint16 // the IPID field the dual connection test leverages
	Flags      uint8  // FlagDF | FlagMF
	FragOffset uint16 // in 8-byte units
	TTL        uint8
	Protocol   uint8
	Checksum   uint16 // filled in on decode; computed on encode
	Src, Dst   netip.Addr
}

// marshalInto writes the 20-byte header with checksum into buf, which must
// be at least ipv4HeaderLen bytes. totalLen is the full datagram length.
func (h *IPv4Header) marshalInto(buf []byte, totalLen int) error {
	if !h.Src.Is4() || !h.Dst.Is4() {
		return fmt.Errorf("%w: source and destination must be IPv4", ErrBadHeader)
	}
	if totalLen > 0xffff {
		return fmt.Errorf("%w: datagram length %d exceeds 65535", ErrBadHeader, totalLen)
	}
	ttl := h.TTL
	if ttl == 0 {
		ttl = 64
	}
	buf[0] = 4<<4 | 5 // version 4, IHL 5
	buf[1] = h.TOS
	binary.BigEndian.PutUint16(buf[2:4], uint16(totalLen))
	binary.BigEndian.PutUint16(buf[4:6], h.ID)
	binary.BigEndian.PutUint16(buf[6:8], uint16(h.Flags)<<13|h.FragOffset&0x1fff)
	buf[8] = ttl
	buf[9] = h.Protocol
	buf[10], buf[11] = 0, 0
	src := h.Src.As4()
	dst := h.Dst.As4()
	copy(buf[12:16], src[:])
	copy(buf[16:20], dst[:])
	binary.BigEndian.PutUint16(buf[10:12], Checksum(buf[:ipv4HeaderLen]))
	return nil
}

// decodeIPv4 parses and validates an IPv4 header, returning the header and
// the payload (bounded by TotalLen).
func decodeIPv4(data []byte) (IPv4Header, []byte, error) {
	var h IPv4Header
	if len(data) < ipv4HeaderLen {
		return h, nil, fmt.Errorf("%w: %d bytes, need %d for IPv4 header", ErrTruncated, len(data), ipv4HeaderLen)
	}
	if v := data[0] >> 4; v != 4 {
		return h, nil, fmt.Errorf("%w: version %d", ErrBadVersion, v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl != ipv4HeaderLen {
		return h, nil, fmt.Errorf("%w: IHL %d bytes (options unsupported)", ErrBadHeader, ihl)
	}
	if Checksum(data[:ipv4HeaderLen]) != 0 {
		return h, nil, errIPv4Checksum
	}
	h.TOS = data[1]
	h.TotalLen = binary.BigEndian.Uint16(data[2:4])
	h.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	h.Flags = uint8(ff >> 13)
	h.FragOffset = ff & 0x1fff
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Checksum = binary.BigEndian.Uint16(data[10:12])
	h.Src = netip.AddrFrom4([4]byte(data[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	if int(h.TotalLen) < ipv4HeaderLen {
		return h, nil, fmt.Errorf("%w: total length %d < header length", ErrBadHeader, h.TotalLen)
	}
	if int(h.TotalLen) > len(data) {
		return h, nil, fmt.Errorf("%w: total length %d > %d captured", ErrTruncated, h.TotalLen, len(data))
	}
	return h, data[ipv4HeaderLen:h.TotalLen], nil
}
