package packet

import (
	"encoding/binary"
	"fmt"
)

// TCP header flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// TCP option kinds understood by the codec.
const (
	OptEOL           = 0
	OptNOP           = 1
	OptMSS           = 2
	OptWindowScale   = 3
	OptSACKPermitted = 4
	OptSACK          = 5
)

const tcpBaseHeaderLen = 20

// SACKBlock is one selective-acknowledgment range [Left, Right) in sequence
// space.
type SACKBlock struct {
	Left, Right uint32
}

// TCPOption is a single TCP option as it appears on the wire. Use the
// constructors below for the kinds the tools emit.
type TCPOption struct {
	Kind byte
	Data []byte // option payload, excluding kind and length octets
}

// MSSOption returns a maximum-segment-size option.
func MSSOption(mss uint16) TCPOption {
	d := make([]byte, 2)
	binary.BigEndian.PutUint16(d, mss)
	return TCPOption{Kind: OptMSS, Data: d}
}

// SACKPermittedOption returns the SACK-permitted handshake option.
func SACKPermittedOption() TCPOption { return TCPOption{Kind: OptSACKPermitted} }

// SACKOption returns a SACK option carrying the given blocks (at most 4).
func SACKOption(blocks []SACKBlock) TCPOption {
	if len(blocks) > 4 {
		blocks = blocks[:4]
	}
	d := make([]byte, 8*len(blocks))
	for i, b := range blocks {
		binary.BigEndian.PutUint32(d[i*8:], b.Left)
		binary.BigEndian.PutUint32(d[i*8+4:], b.Right)
	}
	return TCPOption{Kind: OptSACK, Data: d}
}

// WindowScaleOption returns a window-scale option with the given shift.
func WindowScaleOption(shift byte) TCPOption {
	return TCPOption{Kind: OptWindowScale, Data: []byte{shift}}
}

// TCPHeader is a parsed TCP header.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16 // filled on decode; computed on encode
	Urgent           uint16
	Options          []TCPOption
}

// HasFlags reports whether every flag bit in mask is set.
func (h *TCPHeader) HasFlags(mask uint8) bool { return h.Flags&mask == mask }

// FlagString renders the flags in tcpdump-like notation, e.g. "S.", "R",
// "P.".
func (h *TCPHeader) FlagString() string {
	var s []byte
	if h.Flags&FlagSYN != 0 {
		s = append(s, 'S')
	}
	if h.Flags&FlagFIN != 0 {
		s = append(s, 'F')
	}
	if h.Flags&FlagRST != 0 {
		s = append(s, 'R')
	}
	if h.Flags&FlagPSH != 0 {
		s = append(s, 'P')
	}
	if h.Flags&FlagURG != 0 {
		s = append(s, 'U')
	}
	if h.Flags&FlagACK != 0 {
		s = append(s, '.')
	}
	if len(s) == 0 {
		return "none"
	}
	return string(s)
}

// MSS returns the MSS option value, if present.
func (h *TCPHeader) MSS() (uint16, bool) {
	for _, o := range h.Options {
		if o.Kind == OptMSS && len(o.Data) == 2 {
			return binary.BigEndian.Uint16(o.Data), true
		}
	}
	return 0, false
}

// SACKPermitted reports whether the SACK-permitted option is present.
func (h *TCPHeader) SACKPermitted() bool {
	for _, o := range h.Options {
		if o.Kind == OptSACKPermitted {
			return true
		}
	}
	return false
}

// SACKBlocks returns the blocks of the SACK option, if present.
func (h *TCPHeader) SACKBlocks() []SACKBlock {
	for _, o := range h.Options {
		if o.Kind == OptSACK && len(o.Data)%8 == 0 {
			blocks := make([]SACKBlock, len(o.Data)/8)
			for i := range blocks {
				blocks[i].Left = binary.BigEndian.Uint32(o.Data[i*8:])
				blocks[i].Right = binary.BigEndian.Uint32(o.Data[i*8+4:])
			}
			return blocks
		}
	}
	return nil
}

// OptionsWireLen returns the encoded length of the header's options as
// optionsWireLen computes it — the piece of wire-length arithmetic frame
// views need to size a datagram without encoding it.
func (h *TCPHeader) OptionsWireLen() (int, error) { return h.optionsWireLen() }

// optionsWireLen returns the encoded length of the options, padded to a
// multiple of 4.
func (h *TCPHeader) optionsWireLen() (int, error) {
	n := 0
	for _, o := range h.Options {
		switch o.Kind {
		case OptEOL, OptNOP:
			n++
		default:
			n += 2 + len(o.Data)
		}
	}
	n = (n + 3) &^ 3
	if tcpBaseHeaderLen+n > 60 {
		return 0, fmt.Errorf("%w: TCP options %d bytes exceed header limit", ErrBadHeader, n)
	}
	return n, nil
}

// marshalInto writes the TCP header (with options, zero checksum) into buf.
func (h *TCPHeader) marshalInto(buf []byte, optLen int) {
	binary.BigEndian.PutUint16(buf[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(buf[2:4], h.DstPort)
	binary.BigEndian.PutUint32(buf[4:8], h.Seq)
	binary.BigEndian.PutUint32(buf[8:12], h.Ack)
	buf[12] = uint8((tcpBaseHeaderLen+optLen)/4) << 4
	buf[13] = h.Flags
	binary.BigEndian.PutUint16(buf[14:16], h.Window)
	buf[16], buf[17] = 0, 0 // checksum, filled by caller
	binary.BigEndian.PutUint16(buf[18:20], h.Urgent)
	i := tcpBaseHeaderLen
	for _, o := range h.Options {
		switch o.Kind {
		case OptEOL, OptNOP:
			buf[i] = o.Kind
			i++
		default:
			buf[i] = o.Kind
			buf[i+1] = byte(2 + len(o.Data))
			copy(buf[i+2:], o.Data)
			i += 2 + len(o.Data)
		}
	}
	for ; i < tcpBaseHeaderLen+optLen; i++ {
		buf[i] = OptEOL
	}
}

// decodeTCP parses a TCP segment (header + payload) carried between src and
// dst, verifying the checksum against the pseudo-header. Option data is
// copied out of seg.
func decodeTCP(src, dst [4]byte, seg []byte) (*TCPHeader, []byte, error) {
	h := new(TCPHeader)
	payload, err := decodeTCPInto(h, src, dst, seg, true)
	if err != nil {
		return nil, nil, err
	}
	return h, payload, nil
}

// dataOffsetError is ErrBadHeader for a TCP data offset that points outside
// the segment. The offset is checked before the checksum can be, so on a
// corrupting path this is a per-frame event the receiver drops unread: the
// message is formatted only when it is read.
type dataOffsetError int

func (e dataOffsetError) Error() string {
	return fmt.Sprintf("%v: TCP data offset %d", ErrBadHeader, int(e))
}

func (e dataOffsetError) Unwrap() error { return ErrBadHeader }

// decodeTCPInto is decodeTCP writing into a caller-owned header, reusing
// h.Options' backing storage. When copyData is false, option data aliases
// seg instead of being copied.
func decodeTCPInto(h *TCPHeader, src, dst [4]byte, seg []byte, copyData bool) ([]byte, error) {
	if len(seg) < tcpBaseHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, need %d for TCP header", ErrTruncated, len(seg), tcpBaseHeaderLen)
	}
	dataOff := int(seg[12]>>4) * 4
	if dataOff < tcpBaseHeaderLen || dataOff > len(seg) {
		return nil, dataOffsetError(dataOff)
	}
	if transportChecksum(src, dst, ProtoTCP, seg) != 0 {
		return nil, errTCPChecksum
	}
	h.SrcPort = binary.BigEndian.Uint16(seg[0:2])
	h.DstPort = binary.BigEndian.Uint16(seg[2:4])
	h.Seq = binary.BigEndian.Uint32(seg[4:8])
	h.Ack = binary.BigEndian.Uint32(seg[8:12])
	h.Flags = seg[13] & 0x3f
	h.Window = binary.BigEndian.Uint16(seg[14:16])
	h.Checksum = binary.BigEndian.Uint16(seg[16:18])
	h.Urgent = binary.BigEndian.Uint16(seg[18:20])
	opts, err := appendOptions(h.Options[:0], seg[tcpBaseHeaderLen:dataOff], copyData)
	if err != nil {
		h.Options = h.Options[:0]
		return nil, err
	}
	h.Options = opts
	return seg[dataOff:], nil
}

// appendOptions parses wire options into opts. A fresh decode passes nil;
// scratch decoders pass a reused slice truncated to zero length.
func appendOptions(opts []TCPOption, b []byte, copyData bool) ([]TCPOption, error) {
	for i := 0; i < len(b); {
		kind := b[i]
		switch kind {
		case OptEOL:
			return opts, nil
		case OptNOP:
			opts = append(opts, TCPOption{Kind: OptNOP})
			i++
		default:
			if i+1 >= len(b) {
				return nil, fmt.Errorf("%w: option kind %d missing length", ErrBadHeader, kind)
			}
			l := int(b[i+1])
			if l < 2 || i+l > len(b) {
				return nil, fmt.Errorf("%w: option kind %d length %d", ErrBadHeader, kind, l)
			}
			data := b[i+2 : i+l : i+l]
			if copyData {
				c := make([]byte, l-2)
				copy(c, data)
				data = c
			}
			opts = append(opts, TCPOption{Kind: kind, Data: data})
			i += l
		}
	}
	return opts, nil
}
