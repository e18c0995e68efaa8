package tcpsender_test

import (
	"testing"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/host"
	"reorder/internal/sim"
	"reorder/internal/simnet"
	"reorder/internal/tcpsender"
)

// run wires a sender into a scenario and drives the simulation until the
// transfer completes or the virtual deadline passes.
func run(t *testing.T, cfg tcpsender.Config, sc simnet.Config, deadline time.Duration) (*tcpsender.Sender, tcpsender.Stats) {
	t.Helper()
	n := simnet.New(sc)
	s := tcpsender.New(n.Loop, cfg, n.ProbeAddr(), n.ServerAddr(), n.IDs, sim.NewRand(sc.Seed^0x5e4d, 7), nil)
	s.SetOutput(n.AttachEndpoint(s))
	s.Start()
	n.Loop.RunUntil(sim.Time(deadline))
	return s, s.Stats()
}

func cleanScenario(seed uint64) simnet.Config {
	return simnet.Config{Seed: seed, Server: host.FreeBSD4()}
}

func TestTransferCompletesCleanPath(t *testing.T) {
	cfg := tcpsender.Config{Bytes: 128 << 10}
	s, st := run(t, cfg, cleanScenario(1), 30*time.Second)
	if !s.Done() {
		t.Fatalf("transfer incomplete: %+v", st)
	}
	if st.BytesAcked != 128<<10 {
		t.Fatalf("BytesAcked = %d", st.BytesAcked)
	}
	if st.FastRetransmits != 0 || st.Timeouts != 0 {
		t.Fatalf("retransmissions on a clean path: %+v", st)
	}
	// 10 Mbps access link, 10ms RTT: the transfer should take on the
	// order of a second, not tens.
	if st.Elapsed > 5*time.Second {
		t.Fatalf("Elapsed = %v", st.Elapsed)
	}
	if st.Throughput() < 100_000 {
		t.Fatalf("Throughput = %.0f bps", st.Throughput())
	}
}

func TestSlowStartGrowth(t *testing.T) {
	// With initial cwnd 2 and a clean path, early progress doubles per
	// RTT; just assert the transfer is not stuck at one segment per RTT:
	// 64 KiB in well under 44 RTTs (=64KiB/1460).
	cfg := tcpsender.Config{Bytes: 64 << 10}
	s, st := run(t, cfg, cleanScenario(2), 30*time.Second)
	if !s.Done() {
		t.Fatal("incomplete")
	}
	rtts := int(st.Elapsed / (10 * time.Millisecond))
	if rtts > 30 {
		t.Fatalf("took %d RTTs for 45 segments: no window growth", rtts)
	}
}

func TestLossTriggersRecoveryAndCompletes(t *testing.T) {
	cfg := tcpsender.Config{Bytes: 96 << 10}
	sc := cleanScenario(3)
	sc.Forward.Loss = 0.02
	s, st := run(t, cfg, sc, 120*time.Second)
	if !s.Done() {
		t.Fatalf("transfer incomplete under 2%% loss: %+v", st)
	}
	if st.FastRetransmits+st.Timeouts == 0 {
		t.Fatal("no recovery actions under loss")
	}
	if st.SpuriousFast > st.FastRetransmits/2 {
		t.Fatalf("loss recoveries misdetected as spurious: %+v", st)
	}
}

func TestReorderingCausesSpuriousFastRetransmit(t *testing.T) {
	// The paper's motivating pathology: a loss-free path that reorders
	// deeply (L2 ARQ) makes Reno fast-retransmit fire spuriously and
	// halve cwnd.
	cfg := tcpsender.Config{Bytes: 96 << 10}
	sc := cleanScenario(4)
	sc.Forward.SwapProb = 0.15
	s, st := run(t, cfg, sc, 120*time.Second)
	if !s.Done() {
		t.Fatalf("incomplete: %+v", st)
	}
	_ = s
	// Adjacent swaps produce extent-1 reordering: dupthresh 3 should
	// rarely fire. Now deep reordering:
	sc2 := cleanScenario(5)
	sc2.Forward.LinkRate = 100_000_000        // 1460B spacing ~120µs: jitter displaces many positions
	sc2.Forward.Jitter = 3 * time.Millisecond // independent per-packet delay: deep reordering
	_, st2 := run(t, cfg, sc2, 240*time.Second)
	if st2.FastRetransmits == 0 {
		t.Fatalf("deep reordering triggered no fast retransmits: %+v", st2)
	}
	if st2.SpuriousFast == 0 {
		t.Fatalf("spurious detection found nothing on a loss-free path: %+v", st2)
	}
}

func TestReorderingDegradesThroughput(t *testing.T) {
	cfg := tcpsender.Config{Bytes: 128 << 10}
	base := cleanScenario(6)
	base.Forward.LinkRate = 100_000_000
	_, clean := run(t, cfg, base, 240*time.Second)
	dirty := cleanScenario(6)
	dirty.Forward.LinkRate = 100_000_000
	dirty.Forward.Jitter = 3 * time.Millisecond
	_, reordered := run(t, cfg, dirty, 240*time.Second)
	if reordered.Throughput() >= clean.Throughput() {
		t.Fatalf("reordering did not hurt: clean %.0f vs reordered %.0f bps",
			clean.Throughput(), reordered.Throughput())
	}
}

func TestAdaptiveDupThreshRecoversThroughput(t *testing.T) {
	// The cited proposals' claim: raising dupthresh on detected spurious
	// retransmissions restores much of the lost throughput on a
	// reordering (loss-free) path.
	mk := func(adaptive bool) tcpsender.Stats {
		cfg := tcpsender.Config{Bytes: 128 << 10, Adaptive: adaptive}
		sc := cleanScenario(7)
		sc.Forward.LinkRate = 100_000_000
		sc.Forward.Jitter = 3 * time.Millisecond
		_, st := run(t, cfg, sc, 600*time.Second)
		return st
	}
	fixed := mk(false)
	adaptive := mk(true)
	if adaptive.FinalDupThresh <= 3 {
		t.Fatalf("adaptive threshold never rose: %+v", adaptive)
	}
	if adaptive.CwndHalvings >= fixed.CwndHalvings {
		t.Fatalf("adaptation did not reduce halvings: fixed %d vs adaptive %d",
			fixed.CwndHalvings, adaptive.CwndHalvings)
	}
	if adaptive.Throughput() <= fixed.Throughput() {
		t.Fatalf("adaptation did not help: fixed %.0f vs adaptive %.0f bps",
			fixed.Throughput(), adaptive.Throughput())
	}
}

func TestSenderDefaults(t *testing.T) {
	c := tcpsender.Config{}.Defaults()
	if c.Bytes != 256<<10 || c.RTO != time.Second || c.Adaptive {
		t.Fatalf("Defaults: %+v", c)
	}
}

func TestStatsBeforeStart(t *testing.T) {
	n := simnet.New(cleanScenario(8))
	s := tcpsender.New(n.Loop, tcpsender.Config{}, n.ProbeAddr(), n.ServerAddr(), n.IDs, sim.NewRand(1, 2), nil)
	s.SetOutput(n.AttachEndpoint(s))
	st := s.Stats()
	if st.BytesAcked != 0 || s.Done() {
		t.Fatalf("pre-start stats: %+v", st)
	}
	// Start twice is harmless.
	s.Start()
	s.Start()
	n.Loop.RunUntil(sim.Time(5 * time.Second))
	if !s.Done() && s.Stats().BytesAcked == 0 {
		t.Fatal("no progress after Start")
	}
}

func TestSenderAbortsOnRST(t *testing.T) {
	// Nothing listens at the server: its RST to the SYN must stop the
	// sender at once, before any retransmission timer fires.
	sc := cleanScenario(9)
	sc.Server.Ports = nil
	cfg := tcpsender.Config{Bytes: 32 << 10, RTO: 200 * time.Millisecond}
	s, st := run(t, cfg, sc, 10*time.Second)
	if st.BytesAcked != 0 {
		t.Fatalf("acked %d bytes against a closed port", st.BytesAcked)
	}
	if !s.Done() || st.Timeouts != 0 {
		t.Fatalf("sender not stopped by the RST: done=%v %+v", s.Done(), st)
	}
}

func TestRTORecoversFromWindowLoss(t *testing.T) {
	// A burst of heavy loss can eat an entire window including all
	// dupack fodder: only the RTO can recover. 30% loss makes that
	// likely; the transfer must still complete and count timeouts.
	cfg := tcpsender.Config{Bytes: 32 << 10, RTO: 300 * time.Millisecond}
	sc := cleanScenario(11)
	sc.Forward.Loss = 0.3
	sc.Reverse.Loss = 0.1
	s, st := run(t, cfg, sc, 10*time.Minute)
	if !s.Done() {
		t.Fatalf("incomplete under heavy loss: %+v", st)
	}
	if st.Timeouts == 0 {
		t.Fatalf("no RTO fired under 30%% loss: %+v", st)
	}
}

func TestRTOBackoffBounded(t *testing.T) {
	// Against a silently dropping path the backoff must grow but stay
	// bounded, and the sender must keep trying rather than spin.
	n := simnet.New(simnet.Config{Seed: 12, Server: host.FilteredICMP(host.FreeBSD4()),
		Forward: simnet.PathSpec{Loss: 1.0}})
	s := tcpsender.New(n.Loop, tcpsender.Config{Bytes: 4 << 10, RTO: 100 * time.Millisecond},
		n.ProbeAddr(), n.ServerAddr(), n.IDs, sim.NewRand(1, 2), nil)
	s.SetOutput(n.AttachEndpoint(s))
	s.Start()
	n.Loop.RunUntil(sim.Time(5 * time.Minute))
	if s.Done() {
		t.Fatal("transfer completed through a black hole")
	}
	if s.Stats().BytesAcked != 0 {
		t.Fatal("bytes acked through a black hole")
	}
}

// BenchmarkSenderTransfer times a 256 KiB transfer into a host stack over a
// clean point-to-point scenario — the cost of one background flow — and
// reports it per acknowledged segment.
func BenchmarkSenderTransfer(b *testing.B) {
	sc := cleanScenario(5)
	sc.DisableCaptures = true
	var segs int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := simnet.New(sc)
		s := tcpsender.New(n.Loop, tcpsender.Config{Bytes: 256 << 10}, n.ProbeAddr(), n.ServerAddr(), n.IDs, sim.NewRand(7, 7), nil)
		s.SetOutput(n.AttachEndpoint(s))
		b.StartTimer()
		s.Start()
		n.Loop.RunUntil(sim.Time(30 * time.Second))
		if !s.Done() {
			b.Fatalf("transfer incomplete: %+v", s.Stats())
		}
		segs += s.Stats().BytesAcked / 1460
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(segs), "ns/segment")
}

// TestSharedPayloadsLeaveThePatternIntact runs senders — the cross-traffic
// flows of every catalog topology that has them, and one more attached at
// the probe's end of the path — through the elements that touch bytes, and
// checks the table their frames share is as the initializer left it. The
// attached sender's segments cross the probe's access path, so they are the
// ones the middlebox re-encodes, the corrupter damages (a copy of) and the
// fragmenting hop encodes and then refuses (senders set DF, so the transfer
// stalls there); the flows' segments meet routers, droptail links and a
// receiving stack. Captures are on, so every frame is materialized as well.
func TestSharedPayloadsLeaveThePatternIntact(t *testing.T) {
	before := tcpsender.PatternSum()
	scenarios := map[string]campaign.Scenario{}
	for _, s := range campaign.Scenarios() {
		scenarios[s.Name] = s
	}
	cases := []struct {
		name     string
		scenario string
		forward  simnet.PathSpec
		stalls   bool // the attached sender's data cannot get through
		touched  func(simnet.Stats) bool
	}{
		{"header-rewrite", "header-rewrite", simnet.PathSpec{}, false, func(s simnet.Stats) bool { return s.MiddleboxRewritten > 0 }},
		{"corrupt-storm", "corrupt-storm", simnet.PathSpec{}, false, func(s simnet.Stats) bool { return s.ElemSwapped > 0 }},
		{"fragmenting hop", "", simnet.PathSpec{MTU: 576}, true, func(s simnet.Stats) bool { return s.ElemDropped > 0 }},
	}
	flows := 0
	for _, topo := range campaign.Topologies() {
		for _, tc := range cases {
			rng := sim.NewRand(41, 0x7a)
			spec := topo.Build(rng)
			if spec == nil || len(spec.Flows) == 0 {
				continue
			}
			sc := simnet.Config{Seed: 41, Server: host.Linux24(), Topology: spec, Forward: tc.forward}
			if tc.scenario != "" {
				sc.Scenario = scenarios[tc.scenario].Build(rng)
			}
			n := simnet.New(sc)
			s := tcpsender.New(n.Loop, tcpsender.Config{Bytes: 64 << 10}, n.ProbeAddr(), n.ServerAddr(), n.IDs, sim.NewRand(41, 7), nil)
			s.SetOutput(n.AttachEndpoint(s))
			s.Start()
			n.Loop.RunUntil(sim.Time(2 * time.Second))

			if got := s.Stats().BytesAcked; got == 0 && !tc.stalls {
				t.Errorf("%s under %s: the attached sender moved no data", topo.Name, tc.name)
			}
			for i, bg := range n.Senders {
				flows++
				if got := bg.Stats().BytesAcked; got == 0 {
					t.Errorf("%s under %s: background flow %d moved no data", topo.Name, tc.name, i)
				}
			}
			if st := n.Stats(); !tc.touched(st) || st.Materialized == 0 {
				t.Errorf("%s under %s: no frame was touched: %+v", topo.Name, tc.name, st)
			}
		}
	}
	if flows == 0 {
		t.Fatal("no catalog topology has background flows")
	}
	if after := tcpsender.PatternSum(); after != before {
		t.Fatal("the shared payload table was written to")
	}
}
