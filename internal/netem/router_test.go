package netem

import (
	"net/netip"
	"testing"

	"reorder/internal/packet"
	"reorder/internal/sim"
)

// tcpFrame builds a byte-form frame addressed to dst, enough for the
// router's PeekFlow classification.
func tcpFrame(t *testing.T, id uint64, dst netip.Addr) *Frame {
	t.Helper()
	raw, err := packet.AppendTCP(nil,
		&packet.IPv4Header{Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Dst: dst},
		&packet.TCPHeader{SrcPort: 5000, DstPort: 80, Seq: uint32(id), Flags: packet.FlagACK}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Frame{ID: id, Data: raw}
}

func TestRouterForwardsByDestination(t *testing.T) {
	a := netip.AddrFrom4([4]byte{10, 0, 1, 1})
	b := netip.AddrFrom4([4]byte{10, 0, 2, 1})
	r := NewRouter()
	loop := sim.NewLoop()
	sa, sb := &collector{loop: loop}, &collector{loop: loop}
	r.AddRoute(a, r.AddGroup(sa))
	r.AddRoute(b, r.AddGroup(sb))

	r.Input(tcpFrame(t, 1, a))
	r.Input(tcpFrame(t, 2, b))
	r.Input(tcpFrame(t, 3, a))
	if got := sa.ids(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("route a received %v, want [1 3]", got)
	}
	if got := sb.ids(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("route b received %v, want [2]", got)
	}
	if st := r.Stats(); st.In != 3 || st.Out != 3 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRouterRoutesViewAndByteFormsAlike: a view-built frame is routed on the
// destination its view carries, TCP or ICMP, with no wire bytes produced;
// the same datagram in byte form takes the same port.
func TestRouterRoutesViewAndByteFormsAlike(t *testing.T) {
	a := netip.AddrFrom4([4]byte{10, 0, 1, 1})
	b := netip.AddrFrom4([4]byte{10, 0, 2, 1})
	r := NewRouter()
	loop := sim.NewLoop()
	sa, sb := &collector{loop: loop}, &collector{loop: loop}
	r.AddRoute(a, r.AddGroup(sa))
	r.AddRoute(b, r.AddGroup(sb))

	arena := &Arena{}
	src := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	tcp, err := arena.NewTCPFrame(1, 0, &packet.IPv4Header{Src: src, Dst: b}, &packet.TCPHeader{SrcPort: 5000, DstPort: 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	echo, err := arena.NewICMPFrame(2, 0, &packet.IPv4Header{Src: src, Dst: a}, &packet.ICMPEcho{Type: packet.ICMPEchoRequest, Ident: 7})
	if err != nil {
		t.Fatal(err)
	}
	r.Input(tcp)
	r.Input(echo)
	if tcp.Data != nil || echo.Data != nil || arena.Materialized() != 0 {
		t.Fatal("routing a view-built frame materialized wire bytes")
	}
	r.Input(&Frame{ID: 3, Data: tcp.Materialize()})
	r.Input(&Frame{ID: 4, Data: echo.Materialize()})
	if got := sa.ids(); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("route a received %v, want [2 4]", got)
	}
	if got := sb.ids(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("route b received %v, want [1 3]", got)
	}
}

func TestRouterDropsUnroutable(t *testing.T) {
	r := NewRouter()
	r.AddRoute(netip.AddrFrom4([4]byte{10, 0, 1, 1}), r.AddGroup(Discard))
	// No route for this destination.
	r.Input(tcpFrame(t, 1, netip.AddrFrom4([4]byte{10, 9, 9, 9})))
	// Unclassifiable bytes.
	r.Input(&Frame{ID: 2, Data: []byte{0xde, 0xad}})
	if st := r.Stats(); st.In != 2 || st.Dropped != 2 || st.Out != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRouterSpraysRoundRobin(t *testing.T) {
	dst := netip.AddrFrom4([4]byte{10, 0, 1, 1})
	r := NewRouter()
	loop := sim.NewLoop()
	p0, p1, p2 := &collector{loop: loop}, &collector{loop: loop}, &collector{loop: loop}
	r.AddRoute(dst, r.AddGroup(p0, p1, p2))
	for i := uint64(1); i <= 9; i++ {
		r.Input(tcpFrame(t, i, dst))
	}
	for i, c := range []*collector{p0, p1, p2} {
		ids := c.ids()
		if len(ids) != 3 {
			t.Fatalf("port %d received %d frames, want 3", i, len(ids))
		}
		for j, id := range ids {
			if want := uint64(i + 1 + 3*j); id != want {
				t.Fatalf("port %d frame %d = id %d, want %d", i, j, id, want)
			}
		}
	}
}

func TestRouterSprayCounterSharedAcrossFlows(t *testing.T) {
	// The spray counter belongs to the port group, not the flow: a frame
	// from another flow advances it, so the next frame of the first flow
	// lands on a different physical port — the mechanism behind
	// cross-traffic-induced probe reordering.
	dst := netip.AddrFrom4([4]byte{10, 0, 1, 1})
	r := NewRouter()
	loop := sim.NewLoop()
	p0, p1 := &collector{loop: loop}, &collector{loop: loop}
	r.AddRoute(dst, r.AddGroup(p0, p1))

	mk := func(id uint64, sport uint16) *Frame {
		raw, err := packet.AppendTCP(nil,
			&packet.IPv4Header{Src: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Dst: dst},
			&packet.TCPHeader{SrcPort: sport, DstPort: 80, Seq: uint32(id), Flags: packet.FlagACK}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return &Frame{ID: id, Data: raw}
	}
	r.Input(mk(1, 5000)) // flow A -> p0
	r.Input(mk(2, 6000)) // flow B -> p1
	r.Input(mk(3, 5000)) // flow A again -> p0 (counter advanced by B)
	if got := p0.ids(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("p0 received %v, want [1 3]", got)
	}
	if got := p1.ids(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("p1 received %v, want [2]", got)
	}
}

// TestRouterNonIPv4RouteNeverMatches: frames are IPv4, so a route to any
// other kind of address — IPv6, the IPv4-mapped form of a real destination,
// the zero Addr — matches nothing, in view form or byte form, the all-zero
// destination included; it is still a table entry SetRoute finds again.
func TestRouterNonIPv4RouteNeverMatches(t *testing.T) {
	dst := netip.AddrFrom4([4]byte{10, 0, 1, 1})
	mapped := netip.AddrFrom16(dst.As16())
	r := NewRouter()
	sink := &collector{loop: sim.NewLoop()}
	g := r.AddGroup(sink)
	for _, a := range []netip.Addr{mapped, netip.IPv6Loopback(), {}} {
		r.AddRoute(a, g)
	}
	arena := &Arena{}
	src := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	for i, to := range []netip.Addr{dst, netip.AddrFrom4([4]byte{})} {
		f, err := arena.NewTCPFrame(uint64(i+1), 0, &packet.IPv4Header{Src: src, Dst: to}, &packet.TCPHeader{SrcPort: 5000, DstPort: 80}, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Input(f)
		r.Input(&Frame{ID: f.ID, Data: f.Materialize()})
	}
	if st := r.Stats(); st.In != 4 || st.Dropped != 4 || len(sink.frames) != 0 {
		t.Fatalf("a non-IPv4 route matched a frame: stats %+v, %d delivered", st, len(sink.frames))
	}
	r.SetRoute(mapped, g)
	if len(r.routes) != 3 {
		t.Fatalf("SetRoute on an existing non-IPv4 route grew the table to %d entries, want 3", len(r.routes))
	}
	r.SetRoute(dst, g)
	r.Input(tcpFrame(t, 9, dst))
	if got := sink.ids(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("the IPv4 route received %v, want [9]", got)
	}
}

func TestRouterReinit(t *testing.T) {
	dst := netip.AddrFrom4([4]byte{10, 0, 1, 1})
	r := NewRouter()
	r.AddRoute(dst, r.AddGroup(Discard))
	r.Input(tcpFrame(t, 1, dst))
	r.Reinit()
	if st := r.Stats(); st != (Counters{}) {
		t.Fatalf("stats after Reinit = %+v", st)
	}
	// Old routes are gone: the same destination now drops.
	r.Input(tcpFrame(t, 2, dst))
	if st := r.Stats(); st.Dropped != 1 {
		t.Fatalf("stale route survived Reinit: %+v", st)
	}
	// And the router is fully rebuildable.
	sink := &collector{loop: sim.NewLoop()}
	r.AddRoute(dst, r.AddGroup(sink))
	r.Input(tcpFrame(t, 3, dst))
	if got := sink.ids(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("rebuilt route received %v", got)
	}
}

func TestRouterPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("empty group", func() { NewRouter().AddGroup() })
	expectPanic("bad group index", func() {
		NewRouter().AddRoute(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 0)
	})
}
