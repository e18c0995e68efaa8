package simnet

import (
	"bytes"
	"testing"
	"time"

	"reorder/internal/host"
	"reorder/internal/packet"
)

// chainSpec is a three-router line with a cross host and one background
// flow — enough structure to exercise multi-hop forwarding, endpoint
// demultiplexing and flow scheduling at once.
func chainSpec() *TopologySpec {
	return &TopologySpec{
		Routers: []RouterSpec{{Name: "r0"}, {Name: "r1"}, {Name: "r2"}},
		Links: []LinkSpec{
			{A: "r0", B: "r1"},
			{A: "r1", B: "r2"},
		},
		CrossHosts: []CrossHostSpec{{Name: "x0", Router: "r1", Profile: host.Linux24()}},
		Flows:      []FlowSpec{{Router: "r0", To: "x0", Bytes: 64 << 10}},
	}
}

func graphConfig(seed uint64, spec *TopologySpec) Config {
	return Config{Seed: seed, Server: host.FreeBSD4(), Topology: spec}
}

func TestGraphRoundTrip(t *testing.T) {
	n := New(graphConfig(21, chainSpec()))
	if len(n.Routers) != 3 {
		t.Fatalf("Routers = %d, want 3", len(n.Routers))
	}
	if len(n.Senders) != 1 {
		t.Fatalf("Senders = %d, want 1", len(n.Senders))
	}
	p := n.Probe()
	raw, err := packet.AppendTCP(nil,
		&packet.IPv4Header{Src: n.ProbeAddr(), Dst: n.ServerAddr()},
		&packet.TCPHeader{SrcPort: 5000, DstPort: 80, Seq: 9, Flags: packet.FlagSYN, Window: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Send(raw)
	data, _, ok := p.Recv(time.Second)
	if !ok {
		t.Fatal("no reply across the routed graph within 1s of virtual time")
	}
	reply, err := packet.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.TCP.HasFlags(packet.FlagSYN|packet.FlagACK) || reply.TCP.Ack != 10 {
		t.Fatalf("reply = %s", reply.Summary())
	}
	// Two inter-router hops at 1ms each plus two access hops each way: the
	// RTT must reflect the multi-hop path, not the p2p default.
	if rtt := p.Now().Duration(); rtt < 4*time.Millisecond {
		t.Errorf("virtual RTT = %v, implausibly short for a 3-router path", rtt)
	}
	st := n.Stats()
	if st.ElemIn == 0 || st.ElemOut == 0 {
		t.Fatalf("router/link counters empty: %+v", st)
	}
}

func TestGraphCrossTrafficCompletes(t *testing.T) {
	n := New(graphConfig(22, chainSpec()))
	n.Loop.RunUntil(60 * 1e9)
	s := n.Senders[0]
	if !s.Done() {
		t.Fatalf("background flow incomplete: %+v", s.Stats())
	}
	if got := s.Stats().BytesAcked; got != 64<<10 {
		t.Fatalf("BytesAcked = %d, want %d", got, 64<<10)
	}
}

func TestGraphResetMatchesFresh(t *testing.T) {
	specs := []Config{
		graphConfig(31, chainSpec()),
		{Seed: 32, Server: host.Linux24()}, // graph -> p2p transition
		graphConfig(33, &TopologySpec{
			Routers: []RouterSpec{{Name: "a"}, {Name: "b"}},
			Links:   []LinkSpec{{A: "a", B: "b", Parallel: 2, RateBps: 6_000_000}},
			CrossHosts: []CrossHostSpec{
				{Name: "x0", Router: "b", Profile: host.Linux24()},
				{Name: "x1", Router: "b", Profile: host.FreeBSD4()},
			},
			Flows: []FlowSpec{
				{Router: "a", To: "x0", Bytes: 96 << 10},
				{Router: "a", To: "x1", Bytes: 96 << 10, Start: 5 * time.Millisecond},
			},
		}),
		graphConfig(31, chainSpec()), // revisit: full pool reuse
	}
	reused := New(specs[0])
	for i, cfg := range specs {
		if i > 0 {
			// Leave the previous scenario mid-flight so Reset must recover
			// from scheduled events and partially run flows.
			reused.Loop.RunUntil(20 * 1e6)
			reused.Reset(cfg)
		}
		fresh := New(cfg)
		fd, fid, ft := synProbe(t, fresh)
		rd, rid, rt := synProbe(t, reused)
		if !bytes.Equal(fd, rd) {
			t.Fatalf("config %d: reset graph replied %x, fresh %x", i, rd, fd)
		}
		if fid != rid {
			t.Fatalf("config %d: frame IDs diverged: reset %d, fresh %d", i, rid, fid)
		}
		if ft != rt {
			t.Fatalf("config %d: receive times diverged: reset %v, fresh %v", i, rt, ft)
		}
	}
}

func TestGraphEmptySpecIsDegenerate(t *testing.T) {
	// An empty TopologySpec must take the exact point-to-point build path:
	// same reply bytes, frame IDs and timing as a nil Topology.
	base := Config{Seed: 41, Server: host.FreeBSD4(), Forward: PathSpec{SwapProb: 0.3}}
	withEmpty := base
	withEmpty.Topology = &TopologySpec{}
	d1, id1, t1 := synProbe(t, New(base))
	d2, id2, t2 := synProbe(t, New(withEmpty))
	if !bytes.Equal(d1, d2) || id1 != id2 || t1 != t2 {
		t.Fatal("empty TopologySpec diverged from the nil degenerate case")
	}
}

func TestGraphDeterminismAcrossRuns(t *testing.T) {
	run := func() (int, time.Duration) {
		n := New(graphConfig(51, chainSpec()))
		n.Loop.RunUntil(30 * 1e9)
		st := n.Senders[0].Stats()
		return st.BytesAcked, st.Elapsed
	}
	b1, e1 := run()
	b2, e2 := run()
	if b1 != b2 || e1 != e2 {
		t.Fatalf("same seed diverged: (%d, %v) vs (%d, %v)", b1, e1, b2, e2)
	}
}

func TestGraphDisconnectedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("disconnected topology did not panic")
		}
	}()
	New(graphConfig(61, &TopologySpec{
		Routers: []RouterSpec{{Name: "a"}, {Name: "b"}},
	}))
}
