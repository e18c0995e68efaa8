package simnet

import (
	"bytes"
	"testing"
	"time"

	"reorder/internal/host"
	"reorder/internal/netem"
	"reorder/internal/packet"
)

// scenarioConfigs is a reusable spread of scenario-bearing configs: timeline
// mutations over both directions, middleboxes on each side, route flaps over
// a routed graph, and the degenerate empty spec.
func scenarioConfigs() []Config {
	diamond := &TopologySpec{
		Routers: []RouterSpec{{Name: "r0"}, {Name: "r1"}},
		Links: []LinkSpec{
			{A: "r0", B: "r1", RateBps: 20_000_000, Delay: 8 * time.Millisecond, QueueLimit: 64},
			{A: "r0", B: "r1", RateBps: 20_000_000, Delay: time.Millisecond, QueueLimit: 64},
		},
	}
	return []Config{
		{Seed: 11, Server: host.FreeBSD4(), Scenario: &ScenarioSpec{Steps: []TimelineStep{
			{At: 2 * time.Millisecond, Op: OpLinkRate, Dir: DirForward, Rate: 1_000_000},
			{At: 4 * time.Millisecond, Op: OpLoss, Dir: DirReverse, Prob: 0.5},
			{At: 6 * time.Millisecond, Op: OpSwap, Dir: DirForward, Prob: 0.7},
			{At: 8 * time.Millisecond, Op: OpCorrupt, Dir: DirReverse, Prob: 0.2},
		}}},
		{Seed: 12, Server: host.Linux24(), Forward: PathSpec{SwapProb: 0.3}, Scenario: &ScenarioSpec{
			Middlebox:        &netem.MiddleboxConfig{TTLClamp: 12},
			ReverseMiddlebox: &netem.MiddleboxConfig{RSTProb: 0.2},
			Steps: []TimelineStep{
				{At: 3 * time.Millisecond, Op: OpLinkQueue, Dir: DirForward, Queue: 4},
				{At: 9 * time.Millisecond, Op: OpLinkQueue, Dir: DirForward, Queue: 0},
			},
		}},
		{Seed: 13, Server: host.FreeBSD4(), Topology: diamond, Scenario: &ScenarioSpec{Steps: []TimelineStep{
			{At: 5 * time.Millisecond, Op: OpRouteFlap, Router: "r0", Dst: "server", Link: 1},
			{At: 5 * time.Millisecond, Op: OpRouteFlap, Router: "r1", Dst: "probe", Link: 1},
		}}},
		{Seed: 14, Server: host.FreeBSD4(), Scenario: &ScenarioSpec{}}, // degenerate
		{Seed: 11, Server: host.FreeBSD4(), Scenario: &ScenarioSpec{Steps: []TimelineStep{
			{At: 2 * time.Millisecond, Op: OpLinkRate, Dir: DirForward, Rate: 1_000_000},
			{At: 4 * time.Millisecond, Op: OpLoss, Dir: DirReverse, Prob: 0.5},
			{At: 6 * time.Millisecond, Op: OpSwap, Dir: DirForward, Prob: 0.7},
			{At: 8 * time.Millisecond, Op: OpCorrupt, Dir: DirReverse, Prob: 0.2},
		}}}, // revisit the first
	}
}

// TestScenarioResetMatchesFresh extends the Reset==New contract to
// scenario-bearing configs: pooled middleboxes and the pooled schedule must
// be observably identical to freshly built ones, across cross-config resets
// with events still in flight.
func TestScenarioResetMatchesFresh(t *testing.T) {
	configs := scenarioConfigs()
	reused := New(configs[0])
	for i, cfg := range configs {
		if i > 0 {
			raw, err := packet.AppendTCP(nil,
				&packet.IPv4Header{Src: reused.ProbeAddr(), Dst: reused.ServerAddr()},
				&packet.TCPHeader{SrcPort: 6000, DstPort: 80, Seq: 1, Flags: packet.FlagSYN, Window: 512}, nil)
			if err != nil {
				t.Fatal(err)
			}
			reused.Probe().Send(raw)
			reused.Reset(cfg)
		}
		fresh := New(cfg)
		fd, fid, ft := synProbe(t, fresh)
		rd, rid, rt := synProbe(t, reused)
		if !bytes.Equal(fd, rd) {
			t.Fatalf("config %d: reset scenario replied %x, fresh %x", i, rd, fd)
		}
		if fid != rid || ft != rt {
			t.Fatalf("config %d: id/time diverged: reset (%d,%v), fresh (%d,%v)", i, rid, rt, fid, ft)
		}
	}
}

// TestScenarioNilAndEmptyAreStatic pins the degenerate path: a nil spec, an
// empty spec, and a spec whose steps cannot bind must all be byte-identical
// to a scenario-free build.
func TestScenarioNilAndEmptyAreStatic(t *testing.T) {
	base := Config{Seed: 21, Server: host.FreeBSD4(), Forward: PathSpec{SwapProb: 0.25}}
	bd, bid, bt := synProbe(t, New(base))
	for name, scn := range map[string]*ScenarioSpec{
		"nil":   nil,
		"empty": {},
		"unbindable": {Steps: []TimelineStep{
			// Route flaps on a point-to-point build have nothing to act on.
			{At: time.Millisecond, Op: OpRouteFlap, Router: "r0", Dst: "server", Link: 0},
		}},
	} {
		cfg := base
		cfg.Scenario = scn
		d, id, at := synProbe(t, New(cfg))
		if !bytes.Equal(d, bd) || id != bid || at != bt {
			t.Fatalf("%s scenario diverged from static build", name)
		}
	}
}

// TestScenarioTimelineRetargetsLoss proves a schedule edge lands: loss
// forced to 1.0 at t=0 on both directions kills the handshake that a static
// build of the same config completes.
func TestScenarioTimelineRetargetsLoss(t *testing.T) {
	cfg := Config{Seed: 31, Server: host.FreeBSD4(), Scenario: &ScenarioSpec{Steps: []TimelineStep{
		{At: 0, Op: OpLoss, Dir: DirForward, Prob: 1},
		{At: 0, Op: OpLoss, Dir: DirReverse, Prob: 1},
	}}}
	n := New(cfg)
	raw, err := packet.AppendTCP(nil,
		&packet.IPv4Header{Src: n.ProbeAddr(), Dst: n.ServerAddr()},
		&packet.TCPHeader{SrcPort: 5000, DstPort: 80, Seq: 9, Flags: packet.FlagSYN, Window: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Probe()
	p.Send(raw)
	if _, _, ok := p.Recv(200 * time.Millisecond); ok {
		t.Fatal("reply arrived through a path forced to 100% loss")
	}
	if n.ScenarioApplied() != 2 {
		t.Fatalf("ScenarioApplied = %d, want 2", n.ScenarioApplied())
	}
}

// TestScenarioMiddleboxOnPath proves the adversarial element is actually in
// the forward path: a TTL clamp rewrites the probe's SYN yet the handshake
// still completes (the rewrite re-checksums).
func TestScenarioMiddleboxOnPath(t *testing.T) {
	cfg := Config{Seed: 41, Server: host.FreeBSD4(), Scenario: &ScenarioSpec{
		Middlebox: &netem.MiddleboxConfig{TTLClamp: 5},
	}}
	n := New(cfg)
	synProbe(t, n) // fails the test if no reply arrives
	st := n.Stats()
	if st.MiddleboxRewritten == 0 {
		t.Fatal("forward middlebox rewrote nothing")
	}
}

// TestScenarioRouteFlapChangesPath proves a mid-flow route flap re-routes
// live traffic: over a diamond of 8ms and 1ms paths, a probe sent after the
// flap edge completes its exchange faster than on the static build.
func TestScenarioRouteFlapChangesPath(t *testing.T) {
	diamond := func() *TopologySpec {
		return &TopologySpec{
			Routers: []RouterSpec{{Name: "r0"}, {Name: "r1"}},
			Links: []LinkSpec{
				{A: "r0", B: "r1", RateBps: 20_000_000, Delay: 8 * time.Millisecond, QueueLimit: 64},
				{A: "r0", B: "r1", RateBps: 20_000_000, Delay: time.Millisecond, QueueLimit: 64},
			},
		}
	}
	static := Config{Seed: 51, Server: host.FreeBSD4(), Topology: diamond()}
	flapped := static
	flapped.Topology = diamond()
	flapped.Scenario = &ScenarioSpec{Steps: []TimelineStep{
		{At: 0, Op: OpRouteFlap, Router: "r0", Dst: "server", Link: 1},
		{At: 0, Op: OpRouteFlap, Router: "r1", Dst: "probe", Link: 1},
	}}
	_, _, slow := synProbe(t, New(static))
	nf := New(flapped)
	_, _, fast := synProbe(t, nf)
	if fast >= slow {
		t.Fatalf("flapped path no faster: %v vs static %v", fast, slow)
	}
	if nf.ScenarioApplied() != 2 {
		t.Fatalf("ScenarioApplied = %d, want 2", nf.ScenarioApplied())
	}
}

// FuzzScenarioSpec throws arbitrary timelines at the builder: whatever the
// fields say, construction must not panic, the probe exchange must stay
// deterministic, and Reset must equal New.
func FuzzScenarioSpec(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), int64(2_000_000), -1, 0.5, uint8(0), true)
	f.Add(int64(2), uint8(5), uint8(1), int64(0), 16, 1.5, uint8(3), false)
	f.Add(int64(3), uint8(6), uint8(2), int64(-7), 0, -0.5, uint8(200), true)
	f.Fuzz(func(t *testing.T, at int64, op, dir uint8, rate int64, queue int, prob float64, ttl uint8, active bool) {
		spec := &ScenarioSpec{
			Middlebox: &netem.MiddleboxConfig{TTLClamp: ttl, Inactive: !active},
			Steps: []TimelineStep{
				{At: time.Duration(at) * time.Microsecond, Op: ScenarioOp(op), Dir: Dir(dir),
					Rate: rate, Queue: queue, Prob: prob,
					Router: "r0", Dst: "server", Link: int(queue), Active: active},
				{At: time.Duration(-at) * time.Microsecond, Op: OpMiddlebox, Dir: Dir(dir), Active: active},
			},
		}
		cfg := Config{Seed: uint64(at)*31 + uint64(op), Server: host.FreeBSD4(), Scenario: spec}
		fresh := New(cfg)
		fd, fid, ft := synProbe0(fresh)
		reused := New(cfg)
		synProbe0(reused) // dirty the pools
		reused.Reset(cfg)
		rd, rid, rt := synProbe0(reused)
		if !bytes.Equal(fd, rd) || fid != rid || ft != rt {
			t.Fatalf("fuzzed scenario: reset diverged from fresh (id %d vs %d, t %v vs %v)", rid, fid, rt, ft)
		}
	})
}

// synProbe0 is synProbe without the testing.T plumbing (fuzz targets may
// legitimately lose the reply to a fuzzed 100%-loss schedule).
func synProbe0(n *Net) ([]byte, uint64, time.Duration) {
	raw, err := packet.AppendTCP(nil,
		&packet.IPv4Header{Src: n.ProbeAddr(), Dst: n.ServerAddr()},
		&packet.TCPHeader{SrcPort: 5000, DstPort: 80, Seq: 9, Flags: packet.FlagSYN, Window: 1000}, nil)
	if err != nil {
		return nil, 0, 0
	}
	p := n.Probe()
	id := p.Send(raw)
	data, _, ok := p.Recv(100 * time.Millisecond)
	if !ok {
		return nil, id, p.Now().Duration()
	}
	return append([]byte(nil), data...), id, p.Now().Duration()
}
