package core_test

import (
	"errors"
	"testing"
	"time"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/netem"
	"reorder/internal/simnet"
)

// newProber builds a scenario and a prober over it.
func newProber(cfg simnet.Config) (*core.Prober, *simnet.Net) {
	n := simnet.New(cfg)
	return core.NewProber(n.Probe(), n.ServerAddr(), cfg.Seed+1), n
}

func TestVerdictStrings(t *testing.T) {
	want := map[core.Verdict]string{
		core.VerdictUnknown: "unknown", core.VerdictInOrder: "in-order",
		core.VerdictReordered: "reordered", core.VerdictLost: "lost",
		core.VerdictAmbiguous: "ambiguous", core.Verdict(42): "invalid",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("Verdict(%d).String() = %q, want %q", v, v.String(), s)
		}
	}
	if core.VerdictLost.Valid() || !core.VerdictInOrder.Valid() || !core.VerdictReordered.Valid() {
		t.Error("Valid() wrong")
	}
}

func TestDirCount(t *testing.T) {
	d := core.DirCount{InOrder: 8, Reordered: 2, Discarded: 5}
	if d.Valid() != 10 || d.Rate() != 0.2 {
		t.Fatalf("Valid=%d Rate=%v", d.Valid(), d.Rate())
	}
	if (core.DirCount{}).Rate() != 0 {
		t.Fatal("empty rate should be 0")
	}
}

// --- Single Connection Test ---

func TestSCTCleanPath(t *testing.T) {
	for _, reversed := range []bool{false, true} {
		p, _ := newProber(simnet.Config{Seed: 10, Server: host.FreeBSD4()})
		res, err := p.SingleConnectionTest(core.SCTOptions{Samples: 10, Reversed: reversed})
		if err != nil {
			t.Fatalf("reversed=%v: %v", reversed, err)
		}
		f, r := res.Forward(), res.Reverse()
		if f.Valid() != 10 || f.Reordered != 0 {
			t.Errorf("reversed=%v forward: %+v, want 10 in-order", reversed, f)
		}
		if r.Valid() != 10 || r.Reordered != 0 {
			t.Errorf("reversed=%v reverse: %+v, want 10 in-order", reversed, r)
		}
		if res.AnyReordering() {
			t.Errorf("reversed=%v: AnyReordering on a clean path", reversed)
		}
	}
}

func TestSCTAlwaysSwappedForward(t *testing.T) {
	p, n := newProber(simnet.Config{
		Seed: 11, Server: host.FreeBSD4(),
		Forward: simnet.PathSpec{SwapProb: 1.0},
	})
	res, err := p.SingleConnectionTest(core.SCTOptions{Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forward()
	if f.Reordered != 8 {
		t.Fatalf("forward: %+v, want 8 reordered", f)
	}
	// Every verdict must agree with the ground-truth capture.
	for i, s := range res.Samples {
		ex, ok := n.HostIngress.Exchanged(s.SentIDs[0], s.SentIDs[1])
		if !ok {
			t.Fatalf("sample %d not in ground truth", i)
		}
		if ex != (s.Forward == core.VerdictReordered) {
			t.Fatalf("sample %d: verdict %v, ground truth exchanged=%v", i, s.Forward, ex)
		}
	}
}

func TestSCTReverseSwapDetectedInReversedMode(t *testing.T) {
	// In reversed mode both acknowledgments are immediate, so a reverse-
	// path swapper acting on the back-to-back ACK pair is observable.
	p, _ := newProber(simnet.Config{
		Seed: 12, Server: host.FreeBSD4(),
		Reverse: simnet.PathSpec{SwapProb: 1.0},
	})
	res, err := p.SingleConnectionTest(core.SCTOptions{Samples: 8, Reversed: true})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Reverse()
	if r.Reordered < 6 {
		t.Fatalf("reverse: %+v, want mostly reordered", r)
	}
	// Forward direction must still read in-order.
	f := res.Forward()
	if f.Reordered != 0 {
		t.Fatalf("forward: %+v, want none reordered", f)
	}
}

func TestSCTSurvivesLoss(t *testing.T) {
	p, _ := newProber(simnet.Config{
		Seed: 13, Server: host.FreeBSD4(),
		Forward: simnet.PathSpec{Loss: 0.10},
		Reverse: simnet.PathSpec{Loss: 0.10},
	})
	res, err := p.SingleConnectionTest(core.SCTOptions{Samples: 15, ReplyTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 15 {
		t.Fatalf("got %d samples", len(res.Samples))
	}
	// Under loss some samples discard, but valid ones must dominate and
	// none may read reordered on a swap-free path.
	f := res.Forward()
	if f.Reordered != 0 {
		t.Fatalf("loss misread as reordering: %+v", f)
	}
	if f.Valid() < 8 {
		t.Fatalf("only %d valid samples under 10%% loss", f.Valid())
	}
}

func TestSCTStatisticalRate(t *testing.T) {
	// A 20% forward swapper should measure out near 20%.
	p, _ := newProber(simnet.Config{
		Seed: 14, Server: host.FreeBSD4(),
		Forward: simnet.PathSpec{SwapProb: 0.20},
	})
	res, err := p.SingleConnectionTest(core.SCTOptions{Samples: 200})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forward()
	if rate := f.Rate(); rate < 0.12 || rate > 0.28 {
		t.Fatalf("measured %.3f, want ≈0.20 (%+v)", rate, f)
	}
}

func TestSCTDelayedAckStack(t *testing.T) {
	// The spec-following stack delays ACKs up to 500ms; normal-order SCT
	// still works because hole-fill ACKs are immediate and the reply
	// timeout covers the delayed final ACK.
	p, _ := newProber(simnet.Config{Seed: 15, Server: host.SpecStack()})
	res, err := p.SingleConnectionTest(core.SCTOptions{Samples: 6})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forward()
	if f.Valid() != 6 || f.Reordered != 0 {
		t.Fatalf("forward: %+v", f)
	}
}

func TestSCTHandshakeFailure(t *testing.T) {
	closed := host.FreeBSD4()
	closed.Ports = nil // nothing listening
	p, _ := newProber(simnet.Config{Seed: 16, Server: closed})
	_, err := p.SingleConnectionTest(core.SCTOptions{Samples: 1, ReplyTimeout: 50 * time.Millisecond})
	if !errors.Is(err, core.ErrHandshake) {
		t.Fatalf("err = %v, want ErrHandshake", err)
	}
}

// --- Dual Connection Test ---

func TestDCTCleanPath(t *testing.T) {
	p, _ := newProber(simnet.Config{Seed: 20, Server: host.FreeBSD4()})
	res, err := p.DualConnectionTest(core.DCTOptions{Samples: 10})
	if err != nil {
		t.Fatal(err)
	}
	f, r := res.Forward(), res.Reverse()
	if f.Valid() != 10 || f.Reordered != 0 || r.Reordered != 0 {
		t.Fatalf("forward %+v reverse %+v", f, r)
	}
}

func TestDCTForwardSwap(t *testing.T) {
	p, n := newProber(simnet.Config{
		Seed: 21, Server: host.FreeBSD4(),
		Forward: simnet.PathSpec{SwapProb: 1.0},
	})
	res, err := p.DualConnectionTest(core.DCTOptions{Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forward()
	if f.Reordered != 8 {
		t.Fatalf("forward: %+v, want 8 reordered", f)
	}
	for i, s := range res.Samples {
		ex, ok := n.HostIngress.Exchanged(s.SentIDs[0], s.SentIDs[1])
		if !ok || ex != (s.Forward == core.VerdictReordered) {
			t.Fatalf("sample %d: verdict %v vs ground truth %v (ok=%v)", i, s.Forward, ex, ok)
		}
	}
}

func TestDCTReverseSwap(t *testing.T) {
	p, _ := newProber(simnet.Config{
		Seed: 22, Server: host.FreeBSD4(),
		Reverse: simnet.PathSpec{SwapProb: 1.0},
	})
	res, err := p.DualConnectionTest(core.DCTOptions{Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Reverse()
	if r.Reordered != 8 {
		t.Fatalf("reverse: %+v, want 8 reordered", r)
	}
	// DCT's IPID logic must keep forward clean despite reverse swaps.
	if f := res.Forward(); f.Reordered != 0 {
		t.Fatalf("forward: %+v, want 0 reordered", f)
	}
}

func TestDCTRejectsZeroIPID(t *testing.T) {
	p, _ := newProber(simnet.Config{Seed: 23, Server: host.Linux24()})
	_, err := p.DualConnectionTest(core.DCTOptions{Samples: 5})
	if !errors.Is(err, core.ErrIPIDUnusable) {
		t.Fatalf("err = %v, want ErrIPIDUnusable (Linux 2.4 zero IPID)", err)
	}
}

func TestDCTRejectsRandomIPID(t *testing.T) {
	p, _ := newProber(simnet.Config{Seed: 24, Server: host.OpenBSD3()})
	_, err := p.DualConnectionTest(core.DCTOptions{Samples: 5})
	if !errors.Is(err, core.ErrIPIDUnusable) {
		t.Fatalf("err = %v, want ErrIPIDUnusable (OpenBSD random IPID)", err)
	}
}

func TestDCTAcceptsPerDestinationIPID(t *testing.T) {
	// Solaris-style per-destination counters look monotonic from one
	// vantage point; the paper's footnote says they are fine.
	p, _ := newProber(simnet.Config{Seed: 25, Server: host.Solaris8()})
	res, err := p.DualConnectionTest(core.DCTOptions{Samples: 6})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Forward(); f.Valid() != 6 {
		t.Fatalf("forward: %+v", f)
	}
}

func TestValidateIPIDStandalone(t *testing.T) {
	p, _ := newProber(simnet.Config{Seed: 26, Server: host.FreeBSD4()})
	rep, err := p.ValidateIPID(core.IPIDCheckOptions{Probes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Usable() || rep.Score != 1.0 {
		t.Fatalf("report: %+v", rep)
	}
}

// --- SYN Test ---

func TestSYNCleanPathAllPolicies(t *testing.T) {
	profiles := []host.Profile{host.FreeBSD4(), host.SpecStack(), host.DualRSTStack()}
	for _, prof := range profiles {
		p, _ := newProber(simnet.Config{Seed: 30, Server: prof})
		res, err := p.SYNTest(core.SYNOptions{Samples: 8})
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		f, r := res.Forward(), res.Reverse()
		if f.Valid() != 8 || f.Reordered != 0 {
			t.Errorf("%s forward: %+v", prof.Name, f)
		}
		if r.Valid() != 8 || r.Reordered != 0 {
			t.Errorf("%s reverse: %+v", prof.Name, r)
		}
	}
}

func TestSYNIgnorePolicyForwardOnly(t *testing.T) {
	prof := host.FreeBSD4()
	prof.TCP.SYNPolicy = 3 // tcpstack.SYNPolicyIgnore
	p, _ := newProber(simnet.Config{Seed: 31, Server: prof})
	res, err := p.SYNTest(core.SYNOptions{Samples: 5, ReplyTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f, r := res.Forward(), res.Reverse()
	if f.Valid() != 5 {
		t.Fatalf("forward should still classify from the SYN/ACK: %+v", f)
	}
	if r.Valid() != 0 {
		t.Fatalf("reverse should be unmeasurable with one reply: %+v", r)
	}
}

func TestSYNForwardSwap(t *testing.T) {
	p, n := newProber(simnet.Config{
		Seed: 32, Server: host.FreeBSD4(),
		Forward: simnet.PathSpec{SwapProb: 1.0},
	})
	res, err := p.SYNTest(core.SYNOptions{Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forward()
	if f.Reordered != 8 {
		t.Fatalf("forward: %+v, want 8 reordered", f)
	}
	for i, s := range res.Samples {
		ex, ok := n.HostIngress.Exchanged(s.SentIDs[0], s.SentIDs[1])
		if !ok || !ex {
			t.Fatalf("sample %d ground truth: exchanged=%v ok=%v", i, ex, ok)
		}
	}
}

func TestSYNReverseSwap(t *testing.T) {
	p, _ := newProber(simnet.Config{
		Seed: 33, Server: host.FreeBSD4(),
		Reverse: simnet.PathSpec{SwapProb: 1.0},
	})
	res, err := p.SYNTest(core.SYNOptions{Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Reverse()
	if r.Reordered != 8 {
		t.Fatalf("reverse: %+v, want 8 reordered", r)
	}
	if f := res.Forward(); f.Reordered != 0 {
		t.Fatalf("forward polluted: %+v", f)
	}
}

func TestSYNWorksBehindLoadBalancer(t *testing.T) {
	// The decisive property (§III-D): the SYN test functions where the
	// dual connection test is invalid.
	cfg := simnet.Config{
		Seed: 34,
		Backends: []host.Profile{
			host.FreeBSD4(), host.Linux22(), host.Windows2000(), host.FreeBSD4(),
			host.Linux22(), host.Windows2000(), host.FreeBSD4(), host.Linux22(),
		},
	}
	p, _ := newProber(cfg)
	res, err := p.SYNTest(core.SYNOptions{Samples: 10})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forward()
	if f.Valid() != 10 || f.Reordered != 0 {
		t.Fatalf("forward through LB: %+v", f)
	}
}

func TestSYNLeavesNoServerState(t *testing.T) {
	// Etiquette: after the test every backend connection should be torn
	// down (completed then reset), not left half-open.
	n := simnet.New(simnet.Config{Seed: 35, Server: host.FreeBSD4()})
	p := core.NewProber(n.Probe(), n.ServerAddr(), 36)
	if _, err := p.SYNTest(core.SYNOptions{Samples: 6}); err != nil {
		t.Fatal(err)
	}
	n.Probe().Sleep(2 * time.Second) // let RSTs land
	if got := n.Hosts[0].Stack.Conns(); got != 0 {
		t.Fatalf("%d half-open connections left on the server", got)
	}
}

// --- Data Transfer Test ---

func TestTransferCleanPath(t *testing.T) {
	prof := host.FreeBSD4()
	prof.TCP.ObjectSize = 8 << 10
	p, _ := newProber(simnet.Config{Seed: 40, Server: prof})
	res, err := p.DataTransferTest(core.TransferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Reverse()
	// 8 KiB at MSS 256 = 32 segments = 31 adjacent pairs.
	if r.Valid() != 31 {
		t.Fatalf("samples: %+v, want 31 pairs", r)
	}
	if r.Reordered != 0 {
		t.Fatalf("clean path read reordered: %+v", r)
	}
	for _, s := range res.Samples {
		if s.Forward != core.VerdictUnknown {
			t.Fatal("transfer test cannot know the forward direction")
		}
	}
}

func TestTransferDetectsReverseReordering(t *testing.T) {
	prof := host.FreeBSD4()
	prof.TCP.ObjectSize = 16 << 10
	p, _ := newProber(simnet.Config{
		Seed: 41, Server: prof,
		Reverse: simnet.PathSpec{SwapProb: 0.25},
	})
	res, err := p.DataTransferTest(core.TransferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Reverse()
	if rate := r.Rate(); rate < 0.10 || rate > 0.40 {
		t.Fatalf("measured %.3f, want ≈0.25 (%+v)", rate, r)
	}
}

func TestTransferNoServer(t *testing.T) {
	prof := host.FreeBSD4()
	prof.Ports = nil // nothing listening
	prof.TCP.SilentClosedPorts = true
	p, _ := newProber(simnet.Config{Seed: 42, Server: prof})
	_, err := p.DataTransferTest(core.TransferOptions{IdleTimeout: 100 * time.Millisecond})
	if !errors.Is(err, core.ErrHandshake) {
		t.Fatalf("err = %v, want ErrHandshake", err)
	}
}

func TestTransferSurvivesLoss(t *testing.T) {
	// With holes ACKed over (largest-seen policy) the transfer proceeds
	// despite loss and never misreads loss as reordering.
	prof := host.FreeBSD4()
	prof.TCP.ObjectSize = 8 << 10
	p, _ := newProber(simnet.Config{
		Seed: 43, Server: prof,
		Reverse: simnet.PathSpec{Loss: 0.05},
	})
	res, err := p.DataTransferTest(core.TransferOptions{IdleTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Reverse()
	if r.Valid() < 20 {
		t.Fatalf("too few samples under 5%% loss: %+v", r)
	}
	if r.Rate() > 0.05 {
		t.Fatalf("loss misread as reordering: %+v", r)
	}
}

// --- Cross-test gap parameterization (the §IV-C mechanism) ---

func TestGapReducesTrunkReordering(t *testing.T) {
	trunk := &netem.TrunkConfig{FanOut: 2, RateBps: 1_000_000_000, BurstProb: 0.35, MeanBurstBytes: 2500}
	rate := func(gap time.Duration) float64 {
		p, _ := newProber(simnet.Config{
			Seed: 50, Server: host.FreeBSD4(),
			Forward: simnet.PathSpec{Trunk: trunk},
		})
		res, err := p.DualConnectionTest(core.DCTOptions{Samples: 300, Gap: gap})
		if err != nil {
			t.Fatal(err)
		}
		return res.Forward().Rate()
	}
	r0 := rate(0)
	r250 := rate(250 * time.Microsecond)
	if r0 < 0.05 {
		t.Fatalf("back-to-back rate %.3f, want >= 0.05", r0)
	}
	if r250 > r0/3 {
		t.Fatalf("gap did not suppress reordering: r0=%.3f r250=%.3f", r0, r250)
	}
}

// --- Fragmentation interaction (§III-A: what IPID is actually for) ---

func TestTransferAcrossFragmentingPath(t *testing.T) {
	// A pre-PMTUD server sends 1040-byte datagrams through a 576-byte MTU
	// hop whose fragments are then swapped in flight. IPID-keyed
	// reassembly at the probe must still reconstruct every segment, and
	// the transfer test must keep functioning.
	prof := host.FreeBSD4()
	prof.TCP.ObjectSize = 16 << 10
	prof.TCP.DisablePMTUD = true
	p, _ := newProber(simnet.Config{
		Seed: 70, Server: prof,
		Reverse: simnet.PathSpec{MTU: 576, SwapProb: 0.3},
	})
	res, err := p.DataTransferTest(core.TransferOptions{MSS: 1000, Window: 4000})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Reverse()
	// 16 KiB at MSS 1000 = 17 segments = 16 pairs; allow a little slack
	// for delack/ack interleaving but demand substantially all data.
	if r.Valid() < 14 {
		t.Fatalf("only %d valid pairs across fragmenting path: %+v", r.Valid(), r)
	}
}

func TestPMTUDBlackholesOversizedData(t *testing.T) {
	// The same path with PMTUD left on: the server's DF packets exceed
	// the MTU and are dropped at the fragmenting hop — a classic PMTUD
	// black hole (no ICMP in this substrate), so the transfer yields no
	// data at all.
	prof := host.FreeBSD4()
	prof.TCP.ObjectSize = 16 << 10
	p, _ := newProber(simnet.Config{
		Seed: 71, Server: prof,
		Reverse: simnet.PathSpec{MTU: 576},
	})
	_, err := p.DataTransferTest(core.TransferOptions{MSS: 1000, Window: 4000, IdleTimeout: 300 * time.Millisecond})
	if !errors.Is(err, core.ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData (PMTUD black hole)", err)
	}
}

func TestSCTUnaffectedByMTU(t *testing.T) {
	// Minimum-sized probe packets fit any MTU: the active tests work
	// through constrained paths where bulk transfer breaks.
	p, _ := newProber(simnet.Config{
		Seed:    72,
		Server:  host.FreeBSD4(),
		Forward: simnet.PathSpec{MTU: 576},
		Reverse: simnet.PathSpec{MTU: 576},
	})
	res, err := p.SingleConnectionTest(core.SCTOptions{Samples: 6, Reversed: true})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Forward(); f.Valid() != 6 {
		t.Fatalf("forward: %+v", f)
	}
}

func TestSampleRTTMeasured(t *testing.T) {
	// Default paths: 5ms propagation each way plus serialization; every
	// technique's RTT must land near 10ms.
	for _, tc := range []string{"single", "dual", "syn"} {
		p, _ := newProber(simnet.Config{Seed: 80, Server: host.FreeBSD4()})
		var res *core.Result
		var err error
		switch tc {
		case "single":
			res, err = p.SingleConnectionTest(core.SCTOptions{Samples: 5, Reversed: true})
		case "dual":
			res, err = p.DualConnectionTest(core.DCTOptions{Samples: 5})
		case "syn":
			res, err = p.SYNTest(core.SYNOptions{Samples: 5})
		}
		if err != nil {
			t.Fatalf("%s: %v", tc, err)
		}
		rtt := res.MeanRTT()
		if rtt < 10*time.Millisecond || rtt > 12*time.Millisecond {
			t.Errorf("%s MeanRTT = %v, want ≈10ms", tc, rtt)
		}
	}
}

func TestMeanRTTEmptyResult(t *testing.T) {
	if (&core.Result{}).MeanRTT() != 0 {
		t.Fatal("empty result RTT should be 0")
	}
}

// --- DiffServ cross-class reordering (the remaining §V cause) ---

func TestSCTDiffServMixedMarkings(t *testing.T) {
	// A strict-priority hop at 8 Mbps behind a 100 Mbps access link. A
	// 1500-byte primer occupies the scheduler; the first sample (best
	// effort) queues behind it while the second (expedited TOS 0x10)
	// overtakes — reordering measurable only with mixed markings.
	path := simnet.PathSpec{
		LinkRate: 100_000_000,
		Priority: &netem.PriorityConfig{RateBps: 8_000_000},
	}
	run := func(tos [2]uint8) float64 {
		p, _ := newProber(simnet.Config{Seed: 85, Server: host.FreeBSD4(), Forward: path})
		res, err := p.SingleConnectionTest(core.SCTOptions{
			Samples: 10, Reversed: true, SampleTOS: tos, PrimerBytes: 1500,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Forward().Rate()
	}
	mixed := run([2]uint8{0, 0x10}) // first best-effort, second expedited
	uniform := run([2]uint8{0, 0})  // single class
	if mixed < 0.9 {
		t.Errorf("mixed-marking reordering = %.2f, want ≈1 (expedited overtakes)", mixed)
	}
	if uniform != 0 {
		t.Errorf("uniform-marking reordering = %.2f, want 0 (FIFO within class)", uniform)
	}
}

func TestSCTPrimerDoesNotPolluteClassification(t *testing.T) {
	// The primer's RST (if any) arrives on a different port pair and must
	// not be mistaken for a sample acknowledgment.
	p, _ := newProber(simnet.Config{Seed: 86, Server: host.FreeBSD4()})
	res, err := p.SingleConnectionTest(core.SCTOptions{Samples: 8, Reversed: true, PrimerBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forward()
	if f.Valid() != 8 || f.Reordered != 0 {
		t.Fatalf("forward with primer: %+v", f)
	}
}

func TestTransferSequenceMetrics(t *testing.T) {
	prof := host.FreeBSD4()
	prof.TCP.ObjectSize = 16 << 10
	p, _ := newProber(simnet.Config{
		Seed: 90, Server: prof,
		Reverse: simnet.PathSpec{SwapProb: 0.25},
	})
	res, err := p.DataTransferTest(core.TransferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.SequenceMetrics()
	if rep == nil {
		t.Fatal("transfer produced no sequence metrics")
	}
	if rep.Received != 64 {
		t.Fatalf("Received = %d, want 64 segments", rep.Received)
	}
	if rep.Reordered == 0 {
		t.Fatal("swapped path produced no reordered packets")
	}
	// Adjacent swaps only: all extents are 1, no spurious fast retransmits.
	if rep.MaxExtent() != 1 || rep.SpuriousFastRetransmits(3) != 0 {
		t.Fatalf("extents = max %d, n-reordering %v", rep.MaxExtent(), rep.NReordering)
	}
	// The exchange counts must agree between the two analyses.
	if rep.Exchanges != res.Reverse().Reordered {
		t.Fatalf("metric exchanges %d != verdict count %d", rep.Exchanges, res.Reverse().Reordered)
	}
	// Non-transfer results have no sequence metrics.
	sct, err := p.SingleConnectionTest(core.SCTOptions{Samples: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sct.SequenceMetrics() != nil {
		t.Fatal("SCT result has sequence metrics")
	}
}

// --- Public gap-sweep API (§IV-C packaged) ---

func TestGapSweepAPI(t *testing.T) {
	trunk := &netem.TrunkConfig{FanOut: 2, RateBps: 1_000_000_000, BurstProb: 0.2, MeanBurstBytes: 2500}
	p, _ := newProber(simnet.Config{
		Seed: 95, Server: host.FreeBSD4(),
		Forward: simnet.PathSpec{LinkRate: 1_000_000_000, Trunk: trunk},
	})
	dist, err := p.GapSweep(core.GapSweepOptions{
		Gaps:          []time.Duration{0, 50 * time.Microsecond, 150 * time.Microsecond, 300 * time.Microsecond},
		SamplesPerGap: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Points) != 4 {
		t.Fatalf("points = %d", len(dist.Points))
	}
	if r0 := dist.ForwardAt(0); r0 < 0.05 {
		t.Errorf("rate at 0 = %.4f", r0)
	}
	if r300 := dist.ForwardAt(300 * time.Microsecond); r300 > 0.01 {
		t.Errorf("rate at 300µs = %.4f", r300)
	}
	// Nearest-point lookup between measured gaps.
	if dist.ForwardAt(40*time.Microsecond) != dist.Points[1].Forward {
		t.Error("ForwardAt nearest-point lookup wrong")
	}
	// A gap halfway between two points reads the smaller gap's rate, and a
	// gap outside the schedule reads the nearest end.
	hand := core.GapDistribution{Points: []core.GapRate{
		{Gap: 200 * time.Microsecond, Forward: 0.1},
		{Gap: 300 * time.Microsecond, Forward: 0.2},
	}}
	for _, c := range []struct {
		gap  time.Duration
		want float64
	}{
		{0, 0.1}, {249 * time.Microsecond, 0.1}, {250 * time.Microsecond, 0.1},
		{251 * time.Microsecond, 0.2}, {time.Millisecond, 0.2},
	} {
		if got := hand.ForwardAt(c.gap); got != c.want {
			t.Errorf("ForwardAt(%v) = %v, want %v", c.gap, got, c.want)
		}
	}
	gap, ok := dist.DecayGap(0.02)
	if !ok {
		t.Fatal("decay gap not found")
	}
	if gap > 300*time.Microsecond {
		t.Errorf("DecayGap = %v, want <= 300µs", gap)
	}
}

func TestGapSweepRejectsBadHosts(t *testing.T) {
	p, _ := newProber(simnet.Config{Seed: 96, Server: host.OpenBSD3()})
	_, err := p.GapSweep(core.GapSweepOptions{Gaps: []time.Duration{0}, SamplesPerGap: 5})
	if !errors.Is(err, core.ErrIPIDUnusable) {
		t.Fatalf("err = %v, want ErrIPIDUnusable", err)
	}
}

func TestGapSweepDefaultSchedule(t *testing.T) {
	// GapSweepOptions' empty Gaps is PaperGaps: 1µs steps over [0,200) =
	// 200 points, then 20µs steps 200..500 = 16.
	gaps := core.PaperGaps()
	if len(gaps) != 216 {
		t.Fatalf("schedule has %d points, want 216", len(gaps))
	}
	if gaps[0] != 0 || gaps[1]-gaps[0] != time.Microsecond {
		t.Errorf("fine region starts %v, %v; want 0, 1µs", gaps[0], gaps[1])
	}
	if gaps[200] != 200*time.Microsecond || gaps[201]-gaps[200] != 20*time.Microsecond {
		t.Errorf("coarse region starts %v, %v; want 200µs, 220µs", gaps[200], gaps[201])
	}
	if gaps[len(gaps)-1] != 500*time.Microsecond {
		t.Errorf("last gap = %v, want 500µs", gaps[len(gaps)-1])
	}
	// A clean path at the schedule's bounds: no reordering anywhere, so
	// the distribution decays from the first point.
	p, _ := newProber(simnet.Config{Seed: 97, Server: host.FreeBSD4()})
	dist, err := p.GapSweep(core.GapSweepOptions{
		Gaps: []time.Duration{gaps[0], gaps[len(gaps)-1]}, SamplesPerGap: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Points[0].Forward != 0 {
		t.Error("clean path measured reordering")
	}
	if _, ok := dist.DecayGap(0.0); !ok {
		t.Error("clean path has no decay gap")
	}
}
