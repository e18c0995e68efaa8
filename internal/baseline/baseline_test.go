package baseline

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/packet"
	"reorder/internal/simnet"
	"reorder/internal/trace"

	"reorder/internal/netem"
	"reorder/internal/sim"
)

func TestBennettCleanPath(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 1, Server: host.FreeBSD4()})
	res, err := BennettTest(n.Probe(), n.ServerAddr(), BennettOptions{Bursts: 6, BurstSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bursts) != 6 {
		t.Fatalf("bursts = %d", len(res.Bursts))
	}
	for i, b := range res.Bursts {
		if b.Received != 5 || b.Exchanges != 0 || b.SACKBlocks > 1 {
			t.Fatalf("burst %d: %+v", i, b)
		}
	}
	if res.FractionReordered() != 0 {
		t.Fatal("clean path reported reordering")
	}
}

func TestBennettDetectsReordering(t *testing.T) {
	n := simnet.New(simnet.Config{
		Seed: 2, Server: host.FreeBSD4(),
		Forward: simnet.PathSpec{SwapProb: 0.5},
	})
	res, err := BennettTest(n.Probe(), n.ServerAddr(), BennettOptions{Bursts: 20, BurstSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.FractionReordered() < 0.5 {
		t.Fatalf("FractionReordered = %v, want most bursts reordered", res.FractionReordered())
	}
}

func TestBennettCannotTellDirections(t *testing.T) {
	// The §II criticism embodied: identical observable results whether the
	// swap happens on the forward or the reverse path.
	run := func(fwd, rev float64, seed uint64) float64 {
		n := simnet.New(simnet.Config{
			Seed: seed, Server: host.FreeBSD4(),
			Forward: simnet.PathSpec{SwapProb: fwd},
			Reverse: simnet.PathSpec{SwapProb: rev},
		})
		res, err := BennettTest(n.Probe(), n.ServerAddr(), BennettOptions{Bursts: 40, BurstSize: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.FractionReordered()
	}
	fwdOnly := run(0.3, 0, 3)
	revOnly := run(0, 0.3, 3)
	if fwdOnly == 0 || revOnly == 0 {
		t.Fatalf("expected reordering in both runs: fwd-only=%v rev-only=%v", fwdOnly, revOnly)
	}
	// Same underlying swap rate on either side produces comparable
	// observations; the test has no way to attribute them.
	if diff := fwdOnly - revOnly; diff < -0.35 || diff > 0.35 {
		t.Fatalf("implausibly different: fwd-only=%v rev-only=%v", fwdOnly, revOnly)
	}
}

func TestBennettFilteredHost(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 4, Server: host.FilteredICMP(host.FreeBSD4())})
	_, err := BennettTest(n.Probe(), n.ServerAddr(), BennettOptions{Bursts: 3, ReplyTimeout: 100 * time.Millisecond})
	if !errors.Is(err, ErrNoReplies) {
		t.Fatalf("err = %v, want ErrNoReplies", err)
	}
}

func TestBennettRateLimitedHostLosesReplies(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 5, Server: host.RateLimitedICMP(host.FreeBSD4(), 3)})
	res, err := BennettTest(n.Probe(), n.ServerAddr(), BennettOptions{Bursts: 2, BurstSize: 10, ReplyTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bursts[0].Received >= 10 {
		t.Fatalf("rate-limited host answered the whole burst: %+v", res.Bursts[0])
	}
}

func TestMaxSACKBlocks(t *testing.T) {
	cases := []struct {
		arrivals []int
		want     int
	}{
		{[]int{0, 1, 2, 3, 4}, 0},    // in order: never any island
		{[]int{1, 0, 2, 3, 4}, 1},    // one simple exchange
		{[]int{1, 3, 0, 2, 4}, 2},    // two islands coexist after 1,3
		{[]int{4, 3, 2, 1, 0}, 1},    // full reversal: one growing island
		{[]int{1, 3, 5, 7, 9, 0}, 5}, // alternating: five islands
		{nil, 0},
	}
	for _, c := range cases {
		if got := maxSACKBlocks(c.arrivals); got != c.want {
			t.Errorf("maxSACKBlocks(%v) = %d, want %d", c.arrivals, got, c.want)
		}
	}
}

func TestBennettSACKMetricGrowsWithReordering(t *testing.T) {
	clean := simnet.New(simnet.Config{Seed: 6, Server: host.FreeBSD4()})
	dirty := simnet.New(simnet.Config{
		Seed: 6, Server: host.FreeBSD4(),
		Forward: simnet.PathSpec{SwapProb: 0.5},
	})
	opt := BennettOptions{Bursts: 10, BurstSize: 20}
	cres, err := BennettTest(clean.Probe(), clean.ServerAddr(), opt)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := BennettTest(dirty.Probe(), dirty.ServerAddr(), opt)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(r *BennettResult) int {
		n := 0
		for _, b := range r.Bursts {
			n += b.SACKBlocks
		}
		return n
	}
	if sum(dres) <= sum(cres) {
		t.Fatalf("SACK metric did not grow: clean=%d dirty=%d", sum(cres), sum(dres))
	}
}

// --- Paxson passive analysis ---

// buildFlowCapture synthesizes a capture of data segments with the given
// seq arrival order (unit = 100-byte segments).
func buildFlowCapture(t *testing.T, order []int) (*trace.Capture, packet.FlowKey) {
	t.Helper()
	loop := sim.NewLoop()
	cap := trace.NewCapture("x")
	tap := cap.Tap(loop, netem.Discard)
	src := netip.AddrFrom4([4]byte{10, 0, 1, 1})
	dst := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	var flow packet.FlowKey
	for i, o := range order {
		raw, err := packet.AppendTCP(nil,
			&packet.IPv4Header{Src: src, Dst: dst},
			&packet.TCPHeader{SrcPort: 80, DstPort: 4000, Seq: uint32(1000 + o*100), Flags: packet.FlagACK},
			make([]byte, 100))
		if err != nil {
			t.Fatal(err)
		}
		tap.Input(&netem.Frame{ID: uint64(i + 1), Data: raw})
		if i == 0 {
			p, _ := packet.Decode(raw)
			flow = p.Flow()
		}
	}
	return cap, flow
}

func TestPaxsonInOrder(t *testing.T) {
	cap, flow := buildFlowCapture(t, []int{0, 1, 2, 3, 4})
	rep := AnalyzeCapture(cap, flow)
	if rep.DataPackets != 5 || rep.OutOfOrder != 0 || rep.AnyReordering() {
		t.Fatalf("report: %+v", rep)
	}
}

func TestPaxsonDetectsOutOfOrder(t *testing.T) {
	cap, flow := buildFlowCapture(t, []int{0, 2, 1, 3, 4})
	rep := AnalyzeCapture(cap, flow)
	if rep.OutOfOrder != 1 || rep.Rate() != 0.2 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestPaxsonSkipsRetransmissions(t *testing.T) {
	cap, flow := buildFlowCapture(t, []int{0, 1, 1, 2})
	rep := AnalyzeCapture(cap, flow)
	if rep.Retransmissions != 1 || rep.DataPackets != 3 || rep.OutOfOrder != 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestPaxsonIgnoresOtherFlows(t *testing.T) {
	cap, flow := buildFlowCapture(t, []int{0, 1})
	other := flow
	other.SrcPort = 81
	rep := AnalyzeCapture(cap, other)
	if rep.DataPackets != 0 {
		t.Fatalf("report counted foreign flow: %+v", rep)
	}
}

func TestPaxsonOnLiveTransfer(t *testing.T) {
	// End to end: run a data transfer through a reordering reverse path
	// and passively analyze the probe-ingress capture, Paxson style.
	prof := host.FreeBSD4()
	prof.TCP.ObjectSize = 16 << 10
	n := simnet.New(simnet.Config{
		Seed: 7, Server: prof,
		Reverse: simnet.PathSpec{SwapProb: 0.3},
	})
	p := core.NewProber(n.Probe(), n.ServerAddr(), 8)
	if _, err := p.DataTransferTest(core.TransferOptions{}); err != nil {
		t.Fatal(err)
	}
	// The transfer's data flow: server:80 -> probe:40000 (first allocated).
	flow := packet.FlowKey{
		Src: n.ServerAddr(), Dst: n.ProbeAddr(),
		SrcPort: 80, DstPort: 40000, Proto: packet.ProtoTCP,
	}
	rep := AnalyzeCapture(n.ProbeIngress, flow)
	if rep.DataPackets < 32 {
		t.Fatalf("too few data packets analyzed: %+v", rep)
	}
	if !rep.AnyReordering() {
		t.Fatalf("passive analysis missed the reordering: %+v", rep)
	}
}

// --- Offline flow analysis (tcptrace-style) ---

func TestAnalyzeAllFlows(t *testing.T) {
	// Two transfers through a reordering reverse path, one clean forward
	// request flow: the analyzer must find the data flows and attribute
	// reordering only where it happened.
	prof := host.FreeBSD4()
	prof.TCP.ObjectSize = 8 << 10
	n := simnet.New(simnet.Config{
		Seed: 31, Server: prof,
		Reverse: simnet.PathSpec{SwapProb: 0.3},
	})
	p := core.NewProber(n.Probe(), n.ServerAddr(), 32)
	if _, err := p.DataTransferTest(core.TransferOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.DataTransferTest(core.TransferOptions{}); err != nil {
		t.Fatal(err)
	}
	flows := AnalyzeAllFlows(n.ProbeIngress, 4)
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2 transfers", len(flows))
	}
	for _, fr := range flows {
		if fr.Flow.Src != n.ServerAddr() {
			t.Fatalf("unexpected flow %v", fr.Flow)
		}
		if fr.Paxson.DataPackets < 30 {
			t.Fatalf("flow %v: %d data packets", fr.Flow, fr.Paxson.DataPackets)
		}
		if !fr.Paxson.AnyReordering() || fr.Metrics.Reordered == 0 {
			t.Fatalf("flow %v: reordering missed (%+v, %v)", fr.Flow, fr.Paxson, fr.Metrics)
		}
		// Paxson's out-of-order definition and the metrics package's
		// non-reversing-order definition coincide.
		if fr.Paxson.OutOfOrder != fr.Metrics.Reordered {
			t.Fatalf("flow %v: paxson %d vs metrics %d", fr.Flow, fr.Paxson.OutOfOrder, fr.Metrics.Reordered)
		}
	}
	// Flows below the segment threshold (the request direction carries a
	// single data segment) are excluded.
	for _, fr := range flows {
		if fr.Flow.Dst == n.ServerAddr() {
			t.Fatalf("request flow should be under threshold: %v", fr.Flow)
		}
	}
}

func TestAnalyzeAllFlowsRoundTripsThroughPcap(t *testing.T) {
	// The full offline workflow: capture -> pcap file -> read back ->
	// analyze. Frame IDs are lost in pcap, but flow analysis only needs
	// packet contents.
	prof := host.FreeBSD4()
	prof.TCP.ObjectSize = 4 << 10
	n := simnet.New(simnet.Config{
		Seed: 33, Server: prof,
		Reverse: simnet.PathSpec{SwapProb: 0.3},
	})
	p := core.NewProber(n.Probe(), n.ServerAddr(), 34)
	if _, err := p.DataTransferTest(core.TransferOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.ProbeIngress.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	cap2, err := trace.ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	direct := AnalyzeAllFlows(n.ProbeIngress, 4)
	viaFile := AnalyzeAllFlows(cap2, 4)
	if len(direct) != len(viaFile) {
		t.Fatalf("flow counts differ: %d vs %d", len(direct), len(viaFile))
	}
	for i := range direct {
		if direct[i].Paxson != viaFile[i].Paxson {
			t.Fatalf("flow %d reports differ: %+v vs %+v", i, direct[i].Paxson, viaFile[i].Paxson)
		}
	}
}
