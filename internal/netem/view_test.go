package netem

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"reorder/internal/packet"
	"reorder/internal/sim"
)

var (
	viewSrc = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	viewDst = netip.AddrFrom4([4]byte{10, 0, 1, 1})
)

func tcpFrameArgs() (*packet.IPv4Header, *packet.TCPHeader, []byte) {
	ip := &packet.IPv4Header{Src: viewSrc, Dst: viewDst, ID: 777, TOS: 0x10, Flags: packet.FlagDF}
	tcp := &packet.TCPHeader{
		SrcPort: 40001, DstPort: 80, Seq: 1000, Ack: 2000,
		Flags: packet.FlagACK | packet.FlagPSH, Window: 4096,
		Options: []packet.TCPOption{
			packet.MSSOption(1460),
			packet.SACKPermittedOption(),
		},
	}
	return ip, tcp, []byte("hello wire")
}

// TestMaterializeMatchesAppendTCP pins the core view invariant: the bytes
// Materialize produces are exactly what the sender would have encoded
// eagerly, and the view's normalized headers are exactly what decoding
// those bytes yields (checksum fields excepted — views leave them zero).
func TestMaterializeMatchesAppendTCP(t *testing.T) {
	ip, tcp, payload := tcpFrameArgs()
	want, err := packet.AppendTCP(nil, ip, tcp, payload)
	if err != nil {
		t.Fatal(err)
	}

	var a *Arena // nil arena: heap fallback works identically
	f, err := a.NewTCPFrame(9, 0, ip, tcp, payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != len(want) {
		t.Fatalf("view frame Len = %d before materializing, want wire length %d", f.Len(), len(want))
	}
	if got := f.Materialize(); !bytes.Equal(got, want) {
		t.Fatalf("materialized bytes differ from eager encode:\n got %x\nwant %x", got, want)
	}

	dec, err := packet.Decode(f.Data)
	if err != nil {
		t.Fatal(err)
	}
	v := f.View()
	if v.IP.TotalLen != dec.IP.TotalLen || v.IP.TTL != dec.IP.TTL || v.IP.Protocol != dec.IP.Protocol {
		t.Fatalf("view IP normalization %+v differs from decoded %+v", v.IP, dec.IP)
	}
	if v.TCP.Seq != dec.TCP.Seq || v.TCP.Flags != dec.TCP.Flags || len(v.TCP.Options) != len(dec.TCP.Options) {
		t.Fatalf("view TCP %+v differs from decoded %+v", v.TCP, dec.TCP)
	}
	if mv, _ := v.TCP.MSS(); mv != 1460 || !v.TCP.SACKPermitted() {
		t.Fatal("view options lost in the deep copy")
	}
	if !bytes.Equal(v.Payload, dec.Payload) {
		t.Fatal("view payload differs from decoded payload")
	}
	wantFlow := dec.Flow()
	if v.Flow() != wantFlow {
		t.Fatalf("view flow key %v, want %v", v.Flow(), wantFlow)
	}
}

// TestSharedPayloadFrame pins what NewTCPFrameShared changes and what it
// does not: the view refers to the caller's bytes instead of an arena copy
// (an empty payload is nil either way), wire bytes are the same as the
// copying constructor's in both view and forced-materialize form, and those
// wire bytes are the arena's own, so nothing downstream holds the caller's
// storage through Data.
func TestSharedPayloadFrame(t *testing.T) {
	ip, tcp, payload := tcpFrameArgs()
	want, err := packet.AppendTCP(nil, ip, tcp, payload)
	if err != nil {
		t.Fatal(err)
	}
	a := &Arena{}
	f, err := a.NewTCPFrameShared(1, 0, ip, tcp, payload)
	if err != nil {
		t.Fatal(err)
	}
	if v := f.View(); &v.Payload[0] != &payload[0] || len(v.Payload) != len(payload) {
		t.Fatal("shared frame copied its payload")
	}
	if got := f.Materialize(); !bytes.Equal(got, want) {
		t.Fatalf("materialized bytes differ from eager encode:\n got %x\nwant %x", got, want)
	}
	if !bytes.Equal(payload, []byte("hello wire")) {
		t.Fatal("materializing wrote to the shared payload")
	}
	if empty, err := a.NewTCPFrameShared(2, 0, ip, tcp, payload[:0]); err != nil || empty.View().Payload != nil {
		t.Fatalf("empty shared payload = %v, %v; want nil like NewTCPFrame", empty.View().Payload, err)
	}

	DebugForceMaterialize = true
	defer func() { DebugForceMaterialize = false }()
	g, err := a.NewTCPFrameShared(3, 0, ip, tcp, payload)
	if err != nil {
		t.Fatal(err)
	}
	if g.View() != nil || !bytes.Equal(g.Data, want) {
		t.Fatal("forced materialization of a shared frame differs from eager encode")
	}
	g.Data[len(g.Data)-1] ^= 0xff // the arena's bytes, not the caller's
	if !bytes.Equal(payload, []byte("hello wire")) {
		t.Fatal("byte-form frame aliases the shared payload")
	}
}

// TestPayloadTableMatchesFormula holds a table's slices to the per-byte
// formula, base + (seq+i)%period with the sequence number wrapping as
// uint32, for the serving stack's stream and a period that divides 2^32
// (tcpsender's test holds the sender's): random segments, and segments
// ending at, straddling and starting on sequence number 0, up to the
// largest payload.
func TestPayloadTableMatchesFormula(t *testing.T) {
	rng := sim.NewRand(1, 2)
	for _, c := range []struct {
		base   byte
		period uint32
	}{{0, 251}, {'a', 256}} {
		table := NewPayloadTable(c.base, c.period)
		check := func(seq, n uint32) {
			t.Helper()
			got := table.Slice(seq, n)
			if uint32(len(got)) != n {
				t.Fatalf("%+v: Slice(%d, %d) has %d bytes", c, seq, n, len(got))
			}
			for i, b := range got {
				if want := c.base + byte((seq+uint32(i))%c.period); b != want {
					t.Fatalf("%+v: Slice(%d, %d)[%d] = %d, want %d", c, seq, n, i, b, want)
				}
			}
		}
		for i := 0; i < 500; i++ {
			check(rng.Uint32(), uint32(rng.IntN(1461)))
			check(-uint32(rng.IntN(MaxTCPPayload+1)), uint32(rng.IntN(MaxTCPPayload+1)))
		}
		for back := uint32(0); back <= 1500; back += 7 {
			check(-back, 1460)
		}
		check(0, MaxTCPPayload)
		check(1<<32-1, MaxTCPPayload)
		check(1<<32-MaxTCPPayload, MaxTCPPayload)
	}
}

// TestViewToPacketMatchesDecode checks the receiver-side shortcut: copying
// a view into a scratch packet must agree field-for-field with DecodeInto
// over the materialized bytes.
func TestViewToPacketMatchesDecode(t *testing.T) {
	ip, tcp, payload := tcpFrameArgs()
	a := &Arena{}
	f, err := a.NewTCPFrame(3, 0, ip, tcp, payload)
	if err != nil {
		t.Fatal(err)
	}
	var fromView, fromWire packet.Packet
	f.View().ToPacket(&fromView)
	if err := packet.DecodeInto(&fromWire, f.Materialize()); err != nil {
		t.Fatal(err)
	}
	fromWire.TCP.Checksum = 0 // views do not carry checksums
	fromWire.IP.Checksum = 0
	if fromView.IP != fromWire.IP {
		t.Fatalf("IP headers differ:\nview %+v\nwire %+v", fromView.IP, fromWire.IP)
	}
	if fromView.TCP.Seq != fromWire.TCP.Seq || fromView.TCP.Window != fromWire.TCP.Window ||
		len(fromView.TCP.Options) != len(fromWire.TCP.Options) {
		t.Fatalf("TCP headers differ:\nview %+v\nwire %+v", fromView.TCP, fromWire.TCP)
	}
	if !bytes.Equal(fromView.Payload, fromWire.Payload) {
		t.Fatal("payloads differ")
	}
	if fromView.WireLen != fromWire.WireLen {
		t.Fatalf("WireLen %d vs %d", fromView.WireLen, fromWire.WireLen)
	}
}

// TestPassThroughForwardZeroAlloc pins the decode-once promise at the
// element level: once the arena and heap are warm, pushing a view-built
// frame through the full pass-through chain — link, jitterless delay,
// loss, swapper, priority, load balancer — and delivering it to a sink
// allocates nothing and never materializes wire bytes.
func TestPassThroughForwardZeroAlloc(t *testing.T) {
	loop := sim.NewLoop()
	arena := &Arena{}
	var delivered *Frame
	sink := NodeFunc(func(f *Frame) { delivered = f })

	lb := NewLoadBalancer(HashFourTuple, sink)
	pq := NewPriorityQueue(loop, PriorityConfig{}, lb)
	sw := NewSwapper(loop, 0.3, sim.NewRand(5, 6), pq)
	lo := NewLoss(0.1, sim.NewRand(7, 8), sw)
	de := NewDelay(loop, time.Microsecond, 0, sim.NewRand(9, 10), lo)
	li := NewLink(loop, LinkConfig{RateBps: 100_000_000, PropDelay: time.Millisecond}, de)

	ip, tcp, payload := tcpFrameArgs()
	var ids FrameIDs
	push := func() {
		for i := 0; i < 16; i++ {
			f, err := arena.NewTCPFrame(ids.Next(), loop.Now(), ip, tcp, payload)
			if err != nil {
				t.Fatal(err)
			}
			li.Input(f)
		}
		loop.RunFor(50 * time.Millisecond)
	}
	push() // warm arena slabs, loop heap, element state
	arena.Reset()
	loop.Reset()
	if allocs := testing.AllocsPerRun(50, func() {
		push()
		arena.Reset()
		loop.Reset()
	}); allocs > 0 {
		t.Fatalf("pass-through forward path allocates %.1f objects per batch, want 0", allocs)
	}
	if delivered == nil {
		t.Fatal("no frame reached the sink")
	}
	if delivered.Data != nil {
		t.Fatal("pass-through chain materialized wire bytes")
	}
	if delivered.View() == nil {
		t.Fatal("delivered frame lost its view")
	}
}

// TestCorrupterMaterializesCopy checks the byte-mutating element's
// contract: the original frame's bytes (shared with captures) stay intact,
// the forwarded copy differs in exactly one bit, and pass-through frames
// are forwarded unmodified without materializing.
func TestCorrupterMaterializesCopy(t *testing.T) {
	arena := &Arena{}
	var out []*Frame
	c := NewCorrupter(1.0, sim.NewRand(1, 2), arena, NodeFunc(func(f *Frame) { out = append(out, f) }))

	ip, tcp, payload := tcpFrameArgs()
	f, err := arena.NewTCPFrame(1, 0, ip, tcp, payload)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := packet.AppendTCP(nil, ip, tcp, payload)
	c.Input(f)
	if len(out) != 1 {
		t.Fatalf("corrupter forwarded %d frames, want 1", len(out))
	}
	if !bytes.Equal(f.Data, want) {
		t.Fatal("corrupter mutated the original frame's bytes")
	}
	diff := 0
	for i := range want {
		diff += popcount8(out[0].Data[i] ^ want[i])
	}
	if diff != 1 {
		t.Fatalf("corrupted copy differs in %d bits, want exactly 1", diff)
	}
	if out[0].ID != f.ID || out[0].View() != nil {
		t.Fatal("corrupted copy must keep the frame ID and carry no view")
	}

	// Pass-through (probability 0): same frame, still unmaterialized.
	out = nil
	c.Reinit(0, sim.NewRand(3, 4), arena, NodeFunc(func(f *Frame) { out = append(out, f) }))
	g, err := arena.NewTCPFrame(2, 0, ip, tcp, payload)
	if err != nil {
		t.Fatal(err)
	}
	c.Input(g)
	if len(out) != 1 || out[0] != g || g.Data != nil {
		t.Fatal("pass-through corrupter must forward the identical frame without materializing")
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// TestRoutingHeaderAgreesWithTheDatagram: whatever built a frame — each view
// constructor, the encoded fallback for option sets the view cannot hold, a
// fragmenting, rewriting or corrupting hop, forced materialization — what a
// forwarding hop reads off it (Len, and the destination Router matches on)
// is what the datagram itself says: the view's destination and the length of
// the wire bytes.
func TestRoutingHeaderAgreesWithTheDatagram(t *testing.T) {
	check := func(t *testing.T, f *Frame) {
		t.Helper()
		if v := f.View(); v != nil {
			if f.dst != addrWord(v.IP.Dst) || int(f.wireLen) != v.WireLen() {
				t.Fatalf("header (%#x, %d) differs from the view's (%v, %d)", f.dst, f.wireLen, v.IP.Dst, v.WireLen())
			}
		} else if f.dst != 0 || f.wireLen != 0 {
			t.Fatalf("frame without a view carries a routing header (%#x, %d)", f.dst, f.wireLen)
		}
		before := f.Len()
		data := f.Materialize()
		if before != len(data) || f.Len() != len(data) {
			t.Fatalf("Len = %d before materializing, %d after; wire bytes are %d", before, f.Len(), len(data))
		}
		_, wantOK := packet.PeekFlow(data)
		dst, ok := f.dst4()
		if ok != wantOK && f.View() == nil {
			t.Fatalf("dst4 ok = %v, PeekFlow over the bytes says %v", ok, wantOK)
		}
		if ok && dst != binary.BigEndian.Uint32(data[16:20]) {
			t.Fatalf("dst4 = %#x, the wire bytes say %x", dst, data[16:20])
		}
	}
	through := func(build func(next Node) Node, in *Frame) []*Frame {
		var out []*Frame
		build(NodeFunc(func(f *Frame) { out = append(out, f) })).Input(in)
		if len(out) == 0 {
			t.Fatal("the element forwarded nothing")
		}
		return out
	}
	ip, tcp, payload := tcpFrameArgs()
	echo := &packet.ICMPEcho{Type: packet.ICMPEchoRequest, Ident: 7, Seq: 1, Payload: []byte("ping")}
	for _, force := range []bool{false, true} {
		DebugForceMaterialize = force
		a := &Arena{}
		for name, build := range map[string]func() (*Frame, error){
			"NewTCPFrame":       func() (*Frame, error) { return a.NewTCPFrame(1, 0, ip, tcp, payload) },
			"NewTCPFrameShared": func() (*Frame, error) { return a.NewTCPFrameShared(2, 0, ip, tcp, payload) },
			"NewICMPFrame":      func() (*Frame, error) { return a.NewICMPFrame(3, 0, ip, echo) },
			"encoded fallback": func() (*Frame, error) {
				many := *tcp
				many.Options = []packet.TCPOption{packet.MSSOption(1460), packet.SACKPermittedOption(),
					packet.WindowScaleOption(7), {Kind: packet.OptNOP}, {Kind: packet.OptNOP}}
				f, err := a.NewTCPFrame(4, 0, ip, &many, payload)
				if err == nil && f.View() != nil {
					t.Fatal("five options fitted the view: the fallback was not exercised")
				}
				return f, err
			},
		} {
			f, err := build()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !force && name != "encoded fallback" && f.View() == nil {
				t.Fatalf("%s built no view", name)
			}
			check(t, f)
		}

		big, err := a.NewTCPFrame(5, 0, &packet.IPv4Header{Src: viewSrc, Dst: viewDst, ID: 5}, tcp, make([]byte, 1400))
		if err != nil {
			t.Fatal(err)
		}
		frags := through(func(next Node) Node { return NewFragmenter(576, next) }, big)
		if len(frags) < 3 {
			t.Fatalf("fragmenter emitted %d frames, want >= 3", len(frags))
		}
		for _, f := range frags {
			check(t, f)
		}

		f, _ := a.NewTCPFrame(6, 0, ip, tcp, payload)
		loop := sim.NewLoop()
		for _, f := range through(func(next Node) Node {
			return NewMiddlebox(MiddleboxConfig{TTLClamp: 8, WindowClamp: 1024, RewriteTOS: true, TOS: 1},
				loop, sim.NewRand(1, 1), a, &FrameIDs{}, next)
		}, f) {
			if f.ID == 6 && !force && f.View().IP.TTL != 8 {
				t.Fatal("the middlebox did not rewrite the frame")
			}
			check(t, f)
		}

		// Damage anywhere, the destination and the version nibble included.
		for seed := uint64(1); seed <= 64; seed++ {
			f, _ := a.NewTCPFrame(7, 0, ip, tcp, nil)
			check(t, through(func(next Node) Node { return NewCorrupter(1, sim.NewRand(seed, 2), a, next) }, f)[0])
		}

		// A recycled frame cell must not keep the header of its last use.
		a.Reset()
		if f := a.NewFrame(8, nil, 0); f.Len() != 0 {
			t.Fatalf("an empty frame in a recycled cell has Len %d", f.Len())
		}
	}
	DebugForceMaterialize = false
}
