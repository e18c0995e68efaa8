package host

import (
	"net/netip"
	"testing"
	"time"

	"reorder/internal/netem"
	"reorder/internal/packet"
	"reorder/internal/sim"
)

var (
	probeAddr = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	hostAddr  = netip.AddrFrom4([4]byte{10, 0, 0, 2})
)

type sink struct {
	pkts []*packet.Packet
}

func (s *sink) Input(f *netem.Frame) {
	p, err := packet.Decode(f.Materialize())
	if err != nil {
		panic(err)
	}
	s.pkts = append(s.pkts, p)
}

func (s *sink) drain() []*packet.Packet {
	out := s.pkts
	s.pkts = nil
	return out
}

func newHost(t *testing.T, p Profile) (*Host, *sink, *sim.Loop, *netem.FrameIDs) {
	t.Helper()
	loop := sim.NewLoop()
	out := &sink{}
	var ids netem.FrameIDs
	h := New(loop, p, hostAddr, sim.NewRand(11, 12), &ids, out)
	return h, out, loop, &ids
}

func echoReq(t *testing.T, ids *netem.FrameIDs, ident, seq uint16, n int) *netem.Frame {
	t.Helper()
	raw, err := packet.AppendICMP(nil, &packet.IPv4Header{Src: probeAddr, Dst: hostAddr, ID: 1},
		&packet.ICMPEcho{Type: packet.ICMPEchoRequest, Ident: ident, Seq: seq, Payload: make([]byte, n)})
	if err != nil {
		t.Fatal(err)
	}
	return &netem.Frame{ID: ids.Next(), Data: raw}
}

func TestEchoReply(t *testing.T) {
	h, out, _, ids := newHost(t, FreeBSD4())
	h.Input(echoReq(t, ids, 77, 3, 48))
	got := out.drain()
	if len(got) != 1 || got[0].ICMP == nil {
		t.Fatalf("want 1 echo reply, got %d packets", len(got))
	}
	r := got[0].ICMP
	if r.Type != packet.ICMPEchoReply || r.Ident != 77 || r.Seq != 3 || len(r.Payload) != 48 {
		t.Fatalf("reply fields: %+v", r)
	}
	if got[0].IP.Src != hostAddr || got[0].IP.Dst != probeAddr {
		t.Fatal("reply addressing wrong")
	}
	if h.EchoesAnswered() != 1 {
		t.Fatalf("EchoesAnswered = %d", h.EchoesAnswered())
	}
}

func TestEchoFiltered(t *testing.T) {
	h, out, _, ids := newHost(t, FilteredICMP(FreeBSD4()))
	h.Input(echoReq(t, ids, 1, 1, 8))
	if len(out.drain()) != 0 {
		t.Fatal("filtered host answered ICMP")
	}
}

func TestEchoRateLimit(t *testing.T) {
	h, out, loop, ids := newHost(t, RateLimitedICMP(FreeBSD4(), 5))
	for i := 0; i < 20; i++ {
		h.Input(echoReq(t, ids, 1, uint16(i), 8))
	}
	if n := len(out.drain()); n != 5 {
		t.Fatalf("burst of 20: %d replies, want 5 (bucket size)", n)
	}
	// After a second of virtual time the bucket refills.
	loop.RunFor(time.Second)
	for i := 0; i < 20; i++ {
		h.Input(echoReq(t, ids, 1, uint16(100+i), 8))
	}
	if n := len(out.drain()); n != 5 {
		t.Fatalf("after refill: %d replies, want 5", n)
	}
}

func TestEchoRateLimitSpacedRequests(t *testing.T) {
	h, out, loop, ids := newHost(t, RateLimitedICMP(FreeBSD4(), 10))
	// One request every 200ms: well under 10/s, all answered.
	for i := 0; i < 10; i++ {
		loop.RunFor(200 * time.Millisecond)
		h.Input(echoReq(t, ids, 1, uint16(i), 8))
	}
	if n := len(out.drain()); n != 10 {
		t.Fatalf("spaced requests: %d replies, want 10", n)
	}
}

func TestTCPDispatch(t *testing.T) {
	h, out, _, ids := newHost(t, FreeBSD4())
	raw, err := packet.AppendTCP(nil, &packet.IPv4Header{Src: probeAddr, Dst: hostAddr},
		&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 1, Flags: packet.FlagSYN, Window: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Input(&netem.Frame{ID: ids.Next(), Data: raw})
	got := out.drain()
	if len(got) != 1 || !got[0].TCP.HasFlags(packet.FlagSYN|packet.FlagACK) {
		t.Fatal("SYN to listening port not answered")
	}
}

func TestIgnoresOtherDestinations(t *testing.T) {
	h, out, _, ids := newHost(t, FreeBSD4())
	other := netip.AddrFrom4([4]byte{10, 9, 9, 9})
	raw, err := packet.AppendICMP(nil, &packet.IPv4Header{Src: probeAddr, Dst: other},
		&packet.ICMPEcho{Type: packet.ICMPEchoRequest, Ident: 1, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.Input(&netem.Frame{ID: ids.Next(), Data: raw})
	if len(out.drain()) != 0 {
		t.Fatal("host answered traffic for another address")
	}
}

func TestEchoReplyCarriesIPID(t *testing.T) {
	h, out, _, ids := newHost(t, FreeBSD4()) // global counter from 1
	h.Input(echoReq(t, ids, 1, 1, 8))
	h.Input(echoReq(t, ids, 1, 2, 8))
	got := out.drain()
	if len(got) != 2 {
		t.Fatal("missing replies")
	}
	if got[1].IP.ID != got[0].IP.ID+1 {
		t.Fatalf("IPIDs %d,%d not sequential", got[0].IP.ID, got[1].IP.ID)
	}
}

func TestProfileCatalogDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Catalog() {
		if p.Name == "" || seen[p.Name] {
			t.Fatalf("profile name %q empty or duplicated", p.Name)
		}
		seen[p.Name] = true
		if p.IPID == nil {
			t.Fatalf("profile %s missing IPID factory", p.Name)
		}
		if len(p.Ports) == 0 {
			t.Fatalf("profile %s listens on no ports", p.Name)
		}
	}
}

func TestProfileIPIDPolicies(t *testing.T) {
	cases := map[string]string{
		"freebsd4": "global-counter",
		"linux24":  "zero",
		"openbsd3": "random",
		"solaris8": "per-destination",
	}
	for _, p := range Catalog() {
		want, ok := cases[p.Name]
		if !ok {
			continue
		}
		h, _, _, _ := newHost(t, p)
		if got := h.IPIDPolicy(); got != want {
			t.Errorf("%s IPID policy = %q, want %q", p.Name, got, want)
		}
	}
}

func TestHostDeterministic(t *testing.T) {
	// Two identically seeded hosts answer a SYN with the same ISS.
	mk := func() uint32 {
		h, out, _, ids := newHost(t, FreeBSD4())
		raw, _ := packet.AppendTCP(nil, &packet.IPv4Header{Src: probeAddr, Dst: hostAddr},
			&packet.TCPHeader{SrcPort: 4000, DstPort: 80, Seq: 1, Flags: packet.FlagSYN, Window: 1000}, nil)
		h.Input(&netem.Frame{ID: ids.Next(), Data: raw})
		return out.drain()[0].TCP.Seq
	}
	if mk() != mk() {
		t.Fatal("same-seeded hosts diverged")
	}
}
