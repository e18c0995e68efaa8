package packet

import (
	"encoding/binary"
	"fmt"
)

// IP fragmentation and reassembly. The identification field the dual
// connection test leverages exists for exactly this (§III-A): when a
// router fragments a datagram, every fragment carries the original's IPID
// and the receiver uses it as the reassembly key — which is why senders
// keep IPIDs unique over the packet lifetime, and why the traditional
// implementation is a global counter.

// Fragment splits a raw IPv4 datagram into fragments that fit mtu bytes
// each (header included). Datagrams that already fit are returned as a
// single-element slice sharing the input. DF-marked datagrams that need
// fragmenting are rejected, as a router would (ICMP "fragmentation
// needed" is out of scope; the caller drops).
func Fragment(data []byte, mtu int) ([][]byte, error) {
	if mtu < ipv4HeaderLen+8 {
		return nil, fmt.Errorf("%w: mtu %d too small to fragment", ErrBadHeader, mtu)
	}
	if len(data) <= mtu {
		return [][]byte{data}, nil
	}
	if len(data) < ipv4HeaderLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	ff := binary.BigEndian.Uint16(data[6:8])
	if ff>>13&FlagDF != 0 {
		return nil, fmt.Errorf("%w: DF set on %d-byte datagram over mtu %d", ErrBadHeader, len(data), mtu)
	}
	payload := data[ipv4HeaderLen:]
	// Fragment payload size must be a multiple of 8 except for the last.
	chunk := (mtu - ipv4HeaderLen) &^ 7
	var frags [][]byte
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		more := uint16(FlagMF)
		if end >= len(payload) {
			end = len(payload)
			more = ff >> 13 & FlagMF // preserve an incoming MF on the tail
		}
		f := make([]byte, ipv4HeaderLen+end-off)
		copy(f, data[:ipv4HeaderLen])
		copy(f[ipv4HeaderLen:], payload[off:end])
		binary.BigEndian.PutUint16(f[2:4], uint16(len(f)))
		origOff := ff & 0x1fff
		binary.BigEndian.PutUint16(f[6:8], more<<13|(origOff+uint16(off/8))&0x1fff)
		// Recompute the header checksum.
		f[10], f[11] = 0, 0
		cs := Checksum(f[:ipv4HeaderLen])
		f[10], f[11] = byte(cs>>8), byte(cs)
		frags = append(frags, f)
	}
	return frags, nil
}

// reassemblyKey identifies a datagram under reassembly (RFC 791: source,
// destination, protocol, identification).
type reassemblyKey struct {
	src, dst [4]byte
	proto    uint8
	id       uint16
}

type reassembly struct {
	holes     map[int]int // offset -> length of received ranges
	data      []byte
	header    [ipv4HeaderLen]byte // first fragment's header, reused for the result
	hasHeader bool
	totalLen  int // payload length, known once the MF=0 fragment arrives
	received  int
}

// Reassembler reconstructs datagrams from fragments arriving in any order.
// The zero value is not usable; call NewReassembler. It is the receiving
// host's counterpart of Fragment and demonstrates why reordering is
// harmless to reassembly (offsets, not arrival order, place fragments) as
// long as IPIDs are unique among concurrent datagrams.
type Reassembler struct {
	pending map[reassemblyKey]*reassembly
	// free holds finished, evicted and Reset reassemblies; a new datagram
	// reuses one with its map and buffer, so a warmed reassembler allocates
	// only the datagrams it returns.
	free []*reassembly
	// MaxPending bounds concurrent reassemblies; beyond it the oldest are
	// dropped (simplified buffer management).
	MaxPending int
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{pending: make(map[reassemblyKey]*reassembly), MaxPending: 256}
}

// Reset drops every incomplete datagram, keeping their storage: the state
// NewReassembler returns, MaxPending aside.
func (r *Reassembler) Reset() {
	for _, ra := range r.pending {
		r.free = append(r.free, ra)
	}
	clear(r.pending)
}

// start returns an empty reassembly, recycled when one is free.
func (r *Reassembler) start() *reassembly {
	n := len(r.free)
	if n == 0 {
		return &reassembly{holes: make(map[int]int), totalLen: -1}
	}
	ra := r.free[n-1]
	r.free = r.free[:n-1]
	clear(ra.holes)
	ra.data, ra.hasHeader, ra.totalLen, ra.received = ra.data[:0], false, -1, 0
	return ra
}

// IsFragment reports whether the datagram is an IP fragment (MF set or a
// nonzero fragment offset). Hosts use it to skip reassembly entirely on
// unfragmented traffic. Datagrams too short to carry an IPv4 header report
// false; the decoder rejects those downstream.
func IsFragment(data []byte) bool {
	if len(data) < ipv4HeaderLen {
		return false
	}
	ff := binary.BigEndian.Uint16(data[6:8])
	return ff>>13&FlagMF != 0 || ff&0x1fff != 0
}

// Pending returns the number of incomplete datagrams held.
func (r *Reassembler) Pending() int { return len(r.pending) }

// Input accepts one datagram or fragment. It returns the complete datagram
// (the input itself if it was never fragmented) when reassembly finishes,
// or nil if more fragments are needed. Malformed input returns an error.
func (r *Reassembler) Input(data []byte) ([]byte, error) {
	if len(data) < ipv4HeaderLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	ff := binary.BigEndian.Uint16(data[6:8])
	mf := ff>>13&FlagMF != 0
	off := int(ff&0x1fff) * 8
	if !mf && off == 0 {
		return data, nil // not a fragment
	}
	totalLen := int(binary.BigEndian.Uint16(data[2:4]))
	if totalLen > len(data) || totalLen < ipv4HeaderLen {
		return nil, fmt.Errorf("%w: fragment total length %d", ErrTruncated, totalLen)
	}
	key := reassemblyKey{
		src:   [4]byte(data[12:16]),
		dst:   [4]byte(data[16:20]),
		proto: data[9],
		id:    binary.BigEndian.Uint16(data[4:6]),
	}
	ra := r.pending[key]
	if ra == nil {
		if len(r.pending) >= r.MaxPending {
			r.evictOne()
		}
		ra = r.start()
		r.pending[key] = ra
	}
	payload := data[ipv4HeaderLen:totalLen]
	if have, need := len(ra.data), off+len(payload); need > cap(ra.data) {
		grown := make([]byte, need)
		copy(grown, ra.data)
		ra.data = grown
	} else if need > have {
		ra.data = ra.data[:need]
		clear(ra.data[have:]) // recycled storage: unreceived ranges read as zero
	}
	if _, dup := ra.holes[off]; !dup {
		ra.received += len(payload)
		ra.holes[off] = len(payload)
	}
	copy(ra.data[off:], payload)
	if !mf {
		ra.totalLen = off + len(payload)
	}
	if off == 0 {
		// Keep the first fragment's header for the reassembled datagram.
		copy(ra.header[:], data)
		ra.hasHeader = true
	}
	if ra.totalLen >= 0 && ra.received >= ra.totalLen && ra.contiguous() && ra.hasHeader {
		delete(r.pending, key)
		r.free = append(r.free, ra)
		return assemble(ra)
	}
	return nil, nil
}

func (r *Reassembler) evictOne() {
	for k, ra := range r.pending {
		delete(r.pending, k)
		r.free = append(r.free, ra)
		return
	}
}

// contiguous reports whether the received ranges cover [0, totalLen).
func (ra *reassembly) contiguous() bool {
	covered := 0
	for covered < ra.totalLen {
		l, ok := ra.holes[covered]
		if !ok {
			return false
		}
		covered += l
	}
	return true
}

// assemble rebuilds the full datagram from the stored header and payload.
func assemble(ra *reassembly) ([]byte, error) {
	total := ipv4HeaderLen + ra.totalLen
	out := make([]byte, total)
	copy(out, ra.header[:])
	copy(out[ipv4HeaderLen:], ra.data[:ra.totalLen])
	binary.BigEndian.PutUint16(out[2:4], uint16(total))
	binary.BigEndian.PutUint16(out[6:8], 0) // clear MF and offset
	out[10], out[11] = 0, 0
	cs := Checksum(out[:ipv4HeaderLen])
	out[10], out[11] = byte(cs>>8), byte(cs)
	return out, nil
}
