package simnet

import (
	"testing"
	"time"

	"reorder/internal/host"
	"reorder/internal/netem"
	"reorder/internal/packet"
)

func TestProbeSendRecvRoundTrip(t *testing.T) {
	n := New(Config{Seed: 1, Server: host.FreeBSD4()})
	p := n.Probe()

	// Hand-roll a SYN to the server and expect a SYN/ACK back through the
	// full path.
	raw, err := packet.AppendTCP(nil,
		&packet.IPv4Header{Src: n.ProbeAddr(), Dst: n.ServerAddr()},
		&packet.TCPHeader{SrcPort: 5000, DstPort: 80, Seq: 9, Flags: packet.FlagSYN, Window: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := p.Send(raw)
	if id == 0 {
		t.Fatal("Send returned zero frame ID")
	}
	data, _, ok := p.Recv(time.Second)
	if !ok {
		t.Fatal("no reply within 1s of virtual time")
	}
	reply, err := packet.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.TCP.HasFlags(packet.FlagSYN|packet.FlagACK) || reply.TCP.Ack != 10 {
		t.Fatalf("reply = %s", reply.Summary())
	}
	// Round trip took two 5ms propagation delays plus serialization.
	if rtt := p.Now().Duration(); rtt < 10*time.Millisecond || rtt > 15*time.Millisecond {
		t.Errorf("virtual RTT = %v, want ≈10ms", rtt)
	}
}

func TestRecvTimeoutAdvancesClock(t *testing.T) {
	n := New(Config{Seed: 1, Server: host.FreeBSD4()})
	p := n.Probe()
	start := p.Now()
	if _, _, ok := p.Recv(100 * time.Millisecond); ok {
		t.Fatal("Recv returned data on an idle network")
	}
	if got := p.Now().Sub(start); got != 100*time.Millisecond {
		t.Fatalf("clock advanced %v, want exactly the timeout", got)
	}
}

func TestCapturesSeeTraffic(t *testing.T) {
	n := New(Config{Seed: 1, Server: host.FreeBSD4()})
	p := n.Probe()
	raw, err := packet.AppendTCP(nil,
		&packet.IPv4Header{Src: n.ProbeAddr(), Dst: n.ServerAddr()},
		&packet.TCPHeader{SrcPort: 5000, DstPort: 80, Seq: 9, Flags: packet.FlagSYN, Window: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := p.Send(raw)
	p.Recv(time.Second)
	if n.ProbeEgress.Len() != 1 || n.HostIngress.Len() != 1 {
		t.Fatalf("forward captures: egress=%d ingress=%d", n.ProbeEgress.Len(), n.HostIngress.Len())
	}
	if n.HostEgress.Len() != 1 || n.ProbeIngress.Len() != 1 {
		t.Fatalf("reverse captures: egress=%d ingress=%d", n.HostEgress.Len(), n.ProbeIngress.Len())
	}
	if _, ok := n.HostIngress.Position(id); !ok {
		t.Fatal("sent frame ID not in host ingress capture")
	}
	n.ResetCaptures()
	if n.ProbeEgress.Len() != 0 {
		t.Fatal("ResetCaptures did not clear")
	}
}

func TestSleepAccumulatesInbox(t *testing.T) {
	n := New(Config{Seed: 1, Server: host.FreeBSD4()})
	p := n.Probe()
	raw, _ := packet.AppendTCP(nil,
		&packet.IPv4Header{Src: n.ProbeAddr(), Dst: n.ServerAddr()},
		&packet.TCPHeader{SrcPort: 5001, DstPort: 80, Seq: 9, Flags: packet.FlagSYN, Window: 1000}, nil)
	p.Send(raw)
	p.Sleep(time.Second) // reply arrives during the sleep
	data, _, ok := p.Recv(0)
	if !ok || data == nil {
		t.Fatal("reply not queued in inbox during Sleep")
	}
	p.Flush()
	if _, _, ok := p.Recv(0); ok {
		t.Fatal("Flush did not empty the inbox")
	}
}

func TestForwardSwapperAffectsOnlyForwardPath(t *testing.T) {
	n := New(Config{
		Seed:    3,
		Server:  host.FreeBSD4(),
		Forward: PathSpec{SwapProb: 1.0},
	})
	p := n.Probe()
	mk := func(seq uint32) []byte {
		raw, err := packet.AppendTCP(nil,
			&packet.IPv4Header{Src: n.ProbeAddr(), Dst: n.ServerAddr()},
			&packet.TCPHeader{SrcPort: 5002, DstPort: 80, Seq: seq, Flags: packet.FlagACK}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	id1 := p.Send(mk(1))
	id2 := p.Send(mk(2))
	p.Sleep(time.Second)
	ex, ok := n.HostIngress.Exchanged(id1, id2)
	if !ok {
		t.Fatal("frames not captured at host ingress")
	}
	if !ex {
		t.Fatal("always-swap forward path did not exchange the pair")
	}
}

func TestLoadBalancedScenario(t *testing.T) {
	n := New(Config{
		Seed:     4,
		Backends: []host.Profile{host.FreeBSD4(), host.Linux22(), host.Windows2000(), host.Solaris8()},
	})
	if n.LB == nil || len(n.Hosts) != 4 {
		t.Fatalf("LB=%v hosts=%d", n.LB, len(n.Hosts))
	}
	p := n.Probe()
	// Distinct source ports land on (generally) distinct backends, but a
	// single flow always reaches exactly one; every SYN gets one SYN/ACK.
	for sport := uint16(6000); sport < 6008; sport++ {
		raw, err := packet.AppendTCP(nil,
			&packet.IPv4Header{Src: n.ProbeAddr(), Dst: n.ServerAddr()},
			&packet.TCPHeader{SrcPort: sport, DstPort: 80, Seq: 1, Flags: packet.FlagSYN, Window: 1000}, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Send(raw)
		if _, _, ok := p.Recv(time.Second); !ok {
			t.Fatalf("no SYN/ACK for sport %d", sport)
		}
	}
	st := n.LB.Stats()
	if st.In != 8 || st.Out != 8 {
		t.Fatalf("LB stats: %+v", st)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		n := New(Config{Seed: 42, Server: host.FreeBSD4(), Forward: PathSpec{SwapProb: 0.3}})
		p := n.Probe()
		var ids []uint64
		for i := uint32(0); i < 20; i++ {
			raw, _ := packet.AppendTCP(nil,
				&packet.IPv4Header{Src: n.ProbeAddr(), Dst: n.ServerAddr()},
				&packet.TCPHeader{SrcPort: 7000, DstPort: 80, Seq: i, Flags: packet.FlagACK}, nil)
			p.Send(raw)
		}
		p.Sleep(time.Second)
		for _, r := range n.HostIngress.Records() {
			ids = append(ids, r.FrameID)
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("capture lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different packet orders")
		}
	}
}

func TestTrunkPathSpec(t *testing.T) {
	n := New(Config{
		Seed:   5,
		Server: host.FreeBSD4(),
		Forward: PathSpec{
			Trunk: &netem.TrunkConfig{FanOut: 2, BurstProb: 0.5, MeanBurstBytes: 5000, RateBps: 100_000_000},
		},
	})
	p := n.Probe()
	// Pump pairs through; at least one should be exchanged by the trunk.
	exchanged := 0
	for i := 0; i < 50; i++ {
		mk := func(seq uint32) uint64 {
			raw, err := packet.AppendTCP(nil,
				&packet.IPv4Header{Src: n.ProbeAddr(), Dst: n.ServerAddr()},
				&packet.TCPHeader{SrcPort: 7100, DstPort: 80, Seq: seq, Flags: packet.FlagACK}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return p.Send(raw)
		}
		id1 := mk(1)
		id2 := mk(2)
		p.Sleep(50 * time.Millisecond)
		if ex, ok := n.HostIngress.Exchanged(id1, id2); ok && ex {
			exchanged++
		}
	}
	if exchanged == 0 {
		t.Fatal("striped trunk never exchanged a back-to-back pair in 50 tries")
	}
}
