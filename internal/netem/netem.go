// Package netem models the network between the probe host and the remote
// hosts: links with serialization and propagation delay, droptail queues,
// per-packet striping across parallel links (the physical reordering
// mechanism §IV-C of the paper identifies), a dummynet-style adjacent-packet
// swapper (the paper's controlled-validation apparatus), random loss and
// jitter, and transparent per-flow load balancers.
//
// Frames flow through chains of Nodes on a shared discrete-event loop.
// Every element is deterministic given its sim.Rand stream.
package netem

import (
	"encoding/binary"
	"net/netip"

	"reorder/internal/packet"
	"reorder/internal/sim"
)

// Frame is one IP datagram in flight, tagged with a network-unique ID so
// traces can establish ground-truth ordering independent of packet contents.
//
// A frame carries its datagram in one or both of two forms: wire bytes
// (Data) and a decoded header view (View). Senders on the fast path build
// only the view — parsed headers plus payload, no encoding, no checksums —
// and the wire bytes are materialized lazily by the first element that
// actually needs octets (a fragmenting hop, a corrupting hop, a capture
// tap, a byte-oriented receiver). The two forms always agree: wire bytes
// are only ever produced from the view by Materialize, and both are
// immutable once attached — an element that wants to alter bytes must copy
// them into a new frame (see Corrupter). When wire bytes exist they are
// authoritative; receivers prefer the view only because it is the same
// datagram already decoded.
//
// Who owns the bytes: wire bytes are always the frame's own (arena or heap,
// written once by Materialize or by the element that built the frame). A
// view's payload is a copy in arena storage when the frame came from
// NewTCPFrame or NewICMPFrame — the caller may reuse its buffer at once —
// and the sender's own storage when it came from NewTCPFrameShared, whose
// caller promises never to write those bytes again. Consumers cannot tell
// the two apart and must not try: the immutability rule above is what makes
// sharing safe in both directions.
type Frame struct {
	ID   uint64
	Data []byte   // wire bytes; nil until materialized for view-built frames
	Born sim.Time // when the frame entered the network

	view  *FrameView
	arena *Arena // materialization allocator; nil falls back to the heap

	// The routing header: the two words a forwarding hop reads, copied out
	// of the view when one is attached (viewFrame) so that a Router or a
	// Link touches the frame and nothing behind it. Both are zero, and
	// unread, for a frame without a view.
	dst     uint32 // view.IP.Dst, big-endian
	wireLen uint32 // view.wireLen
}

// Len returns the frame's wire length in bytes, without materializing.
func (f *Frame) Len() int {
	if f.Data != nil {
		return len(f.Data)
	}
	return int(f.wireLen)
}

// dst4 returns the frame's IPv4 destination as a big-endian word: the
// routing header's when the frame has a view, else read from the wire bytes.
// ok is false only for byte-form frames too short, or not IPv4, to classify.
func (f *Frame) dst4() (dst uint32, ok bool) {
	if f.view != nil {
		return f.dst, true
	}
	return peekDst(f.Data)
}

// peekDst is dst4 for wire bytes, kept out of line so that dst4 inlines.
func peekDst(data []byte) (uint32, bool) {
	k, ok := packet.PeekFlow(data)
	if !ok {
		return 0, false
	}
	return addrWord(k.Dst), true
}

// addrWord returns an IPv4 address as a big-endian word.
func addrWord(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// View returns the frame's decoded header view, or nil for frames that
// exist only as wire bytes (fragments, externally injected datagrams).
func (f *Frame) View() *FrameView { return f.view }

// Flow returns the frame's transport flow key without touching wire bytes
// when a view is present, else a PeekFlow over the wire bytes. ok is false
// only for byte-form frames too short to classify.
func (f *Frame) Flow() (packet.FlowKey, bool) {
	if f.view != nil {
		return f.view.Flow(), true
	}
	return packet.PeekFlow(f.Data)
}

// Materialize returns the frame's wire bytes, encoding them from the view
// on first need. The bytes come from the frame's arena (the heap outside
// arena-managed scenarios) and are identical to what the sender would have
// encoded eagerly; once attached they are immutable and authoritative.
func (f *Frame) Materialize() []byte {
	if f.Data != nil || f.view == nil {
		return f.Data
	}
	v := f.view
	buf := f.arena.Alloc(v.wireLen)
	var err error
	switch v.IP.Protocol {
	case packet.ProtoTCP:
		buf, err = packet.AppendTCP(buf, &v.IP, &v.TCP, v.Payload)
	case packet.ProtoICMP:
		buf, err = packet.AppendICMP(buf, &v.IP, &v.ICMP)
	default:
		panic("netem: frame view with unsupported protocol")
	}
	if err != nil {
		// Unreachable: the view builders validated the same conditions.
		panic("netem: materialize: " + err.Error())
	}
	f.Data = buf
	if f.arena != nil {
		f.arena.materialized++
	}
	return f.Data
}

// A Node accepts frames. Network elements implement Node and forward frames
// (possibly delayed, reordered, or dropped) to a downstream Node.
type Node interface {
	Input(f *Frame)
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(*Frame)

// Input implements Node.
func (fn NodeFunc) Input(f *Frame) { fn(f) }

// Discard is a Node that drops everything, useful as a default sink.
var Discard Node = NodeFunc(func(*Frame) {})

// FrameIDs allocates network-unique frame IDs.
type FrameIDs struct{ next uint64 }

// Next returns a fresh nonzero frame ID.
func (s *FrameIDs) Next() uint64 {
	s.next++
	return s.next
}

// Issued returns how many IDs have been handed out — the number of frames
// born into the network under this ID space.
func (s *FrameIDs) Issued() uint64 { return s.next }

// Counters tracks what happened to frames at one element.
type Counters struct {
	In      uint64 // frames accepted
	Out     uint64 // frames forwarded downstream
	Dropped uint64 // frames discarded (queue overflow, loss)
	Swapped uint64 // adjacent exchanges performed (Swapper, StripedTrunk)
}

// Tap is a pass-through Node that invokes a callback for every frame before
// forwarding it, used by the trace package to capture ground truth at a
// point in the topology.
type Tap struct {
	next Node
	fn   func(*Frame, sim.Time)
	loop *sim.Loop
}

// NewTap returns a tap that calls fn(frame, now) and forwards to next.
func NewTap(loop *sim.Loop, next Node, fn func(*Frame, sim.Time)) *Tap {
	return &Tap{next: next, fn: fn, loop: loop}
}

// SetNext rewires the tap's downstream node, so scenario owners can pool
// taps across topology rebuilds (the capture callback and loop are fixed
// at construction).
func (t *Tap) SetNext(next Node) { t.next = next }

// Input implements Node.
func (t *Tap) Input(f *Frame) {
	if t.fn != nil {
		t.fn(f, t.loop.Now())
	}
	t.next.Input(f)
}
