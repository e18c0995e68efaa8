// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the design choices the implementation makes. The figures-of-merit are reported as custom
// metrics (rates, fractions) alongside the usual time/op; wall-clock here
// measures simulation throughput, since all experiments run in virtual
// time.
package reorder_test

import (
	"testing"
	"time"

	"reorder"
	"reorder/internal/core"
	"reorder/internal/experiments"
	"reorder/internal/host"
	"reorder/internal/netem"
	"reorder/internal/simnet"
)

// BenchmarkValidation regenerates E1 (§IV-A): tool verdicts vs trace ground
// truth over the swap-rate grid. Metric: fraction of samples correct
// (paper: 0.9999).
func BenchmarkValidation(b *testing.B) {
	var correct float64
	for i := 0; i < b.N; i++ {
		rep := experiments.RunValidation(experiments.DefaultValidation())
		correct = rep.CorrectFraction()
	}
	b.ReportMetric(correct, "correct-frac")
}

// BenchmarkSurveyCDF regenerates E2 (Fig 5): the CDF of per-path reordering
// rates over the host population. Metric: fraction of paths with some
// reordering (paper: >0.40).
func BenchmarkSurveyCDF(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		rep := experiments.RunSurvey(experiments.DefaultSurvey())
		frac = rep.FractionWithReordering()
	}
	b.ReportMetric(frac, "paths-reordering-frac")
}

// BenchmarkIPIDScreen regenerates E6: the prevalidation pass over the
// population, counting hosts the dual connection test must exclude
// (paper: 9 zero-IPID + 8 non-monotonic of 50).
func BenchmarkIPIDScreen(b *testing.B) {
	var excluded int
	for i := 0; i < b.N; i++ {
		rep := experiments.RunSurvey(experiments.DefaultSurvey())
		ex := rep.DCTExclusions()
		excluded = ex["zero-ipid"] + ex["non-monotonic"]
	}
	b.ReportMetric(float64(excluded), "hosts-excluded")
}

// BenchmarkAgreement regenerates E4 (§IV-B): the pairwise paired-difference
// comparison at 99.9% confidence. Metric: single/syn forward null-support
// fraction (paper: 0.78).
func BenchmarkAgreement(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultSurvey()
		cfg.Rounds = 8
		survey := experiments.RunSurvey(cfg)
		rep := experiments.RunAgreement(survey)
		if p, ok := rep.Pair("single", "syn", "forward"); ok {
			frac = p.NullFraction()
		}
	}
	b.ReportMetric(frac, "single-syn-null-frac")
}

// BenchmarkTimeSeries regenerates E3 (Fig 6): interleaved SCT and SYN
// measurements of a drifting load-balanced path. Metric: correlation of
// the two series (the figure's visual claim).
func BenchmarkTimeSeries(b *testing.B) {
	var corr float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunTimeSeries(experiments.DefaultTimeSeries())
		if err != nil {
			b.Fatal(err)
		}
		corr = rep.Correlation()
	}
	b.ReportMetric(corr, "sct-syn-corr")
}

// BenchmarkGapSweep regenerates E5 (Fig 7): reordering probability vs
// inter-packet spacing. Metrics: the rates at 0, 50µs and 250µs (paper:
// >0.10, <0.02, ≈0).
func BenchmarkGapSweep(b *testing.B) {
	var r0, r50, r250 float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunGapSweep(experiments.DefaultGapSweep())
		if err != nil {
			b.Fatal(err)
		}
		r0 = rep.ForwardAt(0)
		r50 = rep.ForwardAt(50 * time.Microsecond)
		r250 = rep.ForwardAt(250 * time.Microsecond)
	}
	b.ReportMetric(r0, "rate-at-0us")
	b.ReportMetric(r50, "rate-at-50us")
	b.ReportMetric(r250, "rate-at-250us")
}

// BenchmarkBaselines regenerates E7 (§II): Bennett ICMP bursts and Paxson
// passive analysis on a heavy-reordering path. Metric: fraction of small
// bursts with reordering (Bennett: >0.90 on his pathological path).
func BenchmarkBaselines(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunBaselines(experiments.DefaultBaselines())
		if err != nil {
			b.Fatal(err)
		}
		frac = rep.SmallBurstReordered
	}
	b.ReportMetric(frac, "bursts-reordered-frac")
}

// --- Ablations ---

// runSCT measures sample efficiency of the single connection test variant
// against a delayed-ACK-heavy stack.
func runSCT(b *testing.B, reversed bool) (validFrac float64, elapsed time.Duration) {
	b.Helper()
	n := simnet.New(simnet.Config{Seed: 97, Server: host.SpecStack()}) // 500ms delayed ACKs
	p := core.NewProber(n.Probe(), n.ServerAddr(), 98)
	res, err := p.SingleConnectionTest(core.SCTOptions{Samples: 40, Reversed: reversed})
	if err != nil {
		b.Fatal(err)
	}
	f := res.Forward()
	return float64(f.Valid()) / float64(len(res.Samples)), n.Loop.Now().Duration()
}

// BenchmarkAblationSCTSendOrder compares normal vs reversed sample order on
// a maximal-delayed-ACK stack. The reversed variant's in-order case elicits
// only immediate ACKs, so it completes in far less virtual time per sample
// — the §III-B rationale.
func BenchmarkAblationSCTSendOrder(b *testing.B) {
	var normal, reversed time.Duration
	for i := 0; i < b.N; i++ {
		_, normal = runSCT(b, false)
		_, reversed = runSCT(b, true)
	}
	b.ReportMetric(normal.Seconds(), "normal-vtime-s")
	b.ReportMetric(reversed.Seconds(), "reversed-vtime-s")
}

// BenchmarkAblationValidationProbes measures the IPID prevalidation
// false-accept rate on random-IPID hosts as the probe count varies: the
// window-size trade-off.
func BenchmarkAblationValidationProbes(b *testing.B) {
	for _, probes := range []int{4, 8, 16} {
		b.Run(byteCount(probes), func(b *testing.B) {
			accepts := 0
			trials := 0
			for i := 0; i < b.N; i++ {
				for s := uint64(0); s < 10; s++ {
					n := simnet.New(simnet.Config{Seed: 1000 + s, Server: host.OpenBSD3()})
					p := core.NewProber(n.Probe(), n.ServerAddr(), s)
					rep, err := p.ValidateIPID(core.IPIDCheckOptions{Probes: probes})
					if err != nil {
						b.Fatal(err)
					}
					trials++
					if rep.Usable() {
						accepts++
					}
				}
			}
			b.ReportMetric(float64(accepts)/float64(trials), "false-accept-frac")
		})
	}
}

func byteCount(n int) string {
	switch n {
	case 4:
		return "probes-4"
	case 8:
		return "probes-8"
	default:
		return "probes-16"
	}
}

// BenchmarkAblationTrunkBurstSize compares cross-traffic burst sizes on the
// striped trunk: the mean backlog sets the Fig 7 decay constant, so larger
// bursts leave measurable reordering at gaps where small bursts have
// already decayed to zero. (Fan-out does not matter for isolated pairs —
// round-robin always separates a back-to-back pair — which is itself a
// property of the §IV-C model worth knowing.)
func BenchmarkAblationTrunkBurstSize(b *testing.B) {
	rateFor := func(meanBytes float64, gap time.Duration) float64 {
		trunk := &netem.TrunkConfig{FanOut: 2, RateBps: 1_000_000_000, BurstProb: 0.35, MeanBurstBytes: meanBytes}
		n := simnet.New(simnet.Config{Seed: 55, Server: host.FreeBSD4(), Forward: simnet.PathSpec{Trunk: trunk}})
		p := core.NewProber(n.Probe(), n.ServerAddr(), 56)
		res, err := p.DualConnectionTest(core.DCTOptions{Samples: 300, Gap: gap})
		if err != nil {
			b.Fatal(err)
		}
		return res.Forward().Rate()
	}
	var small, large float64
	for i := 0; i < b.N; i++ {
		small = rateFor(1250, 40*time.Microsecond)
		large = rateFor(5000, 40*time.Microsecond)
	}
	b.ReportMetric(small, "rate-1250B-at-40us")
	b.ReportMetric(large, "rate-5000B-at-40us")
}

// BenchmarkAblationDelAckTimeout sweeps the server's delayed-ACK timeout
// and reports the virtual time one normal-order SCT measurement takes: the
// cost the delayed-ACK mitigation avoids.
func BenchmarkAblationDelAckTimeout(b *testing.B) {
	for _, timeout := range []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond} {
		b.Run(timeout.String(), func(b *testing.B) {
			var vtime time.Duration
			for i := 0; i < b.N; i++ {
				prof := host.FreeBSD4()
				prof.TCP.DelAckTimeout = timeout
				prof.TCP.DelAckThreshold = 4 // force the timer path
				n := simnet.New(simnet.Config{Seed: 77, Server: prof})
				p := core.NewProber(n.Probe(), n.ServerAddr(), 78)
				if _, err := p.SingleConnectionTest(core.SCTOptions{Samples: 20}); err != nil {
					b.Fatal(err)
				}
				vtime = n.Loop.Now().Duration()
			}
			b.ReportMetric(vtime.Seconds(), "vtime-s")
		})
	}
}

// BenchmarkProberThroughput measures raw engine speed: samples per second
// of wall-clock across the full stack (prober, network, server TCP).
func BenchmarkProberThroughput(b *testing.B) {
	net := reorder.NewSimNet(reorder.SimConfig{Seed: 5, Server: reorder.FreeBSD4()})
	p := reorder.NewProber(net.Probe(), net.ServerAddr(), 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.DualConnectionTest(reorder.DCTOptions{Samples: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMechanisms regenerates E8 (extension): the gap signatures of
// trunk striping, multi-path routing and L2 ARQ. Metrics: each mechanism's
// rate at a 100µs gap, where the three curves separate sharply.
func BenchmarkMechanisms(b *testing.B) {
	var trunk, mp, arq float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunMechanisms(experiments.DefaultMechanisms())
		if err != nil {
			b.Fatal(err)
		}
		at := 100 * time.Microsecond
		if c, ok := rep.Curve("trunk"); ok {
			trunk = c.ForwardAt(at)
		}
		if c, ok := rep.Curve("multipath"); ok {
			mp = c.ForwardAt(at)
		}
		if c, ok := rep.Curve("l2-arq"); ok {
			arq = c.ForwardAt(at)
		}
	}
	b.ReportMetric(trunk, "trunk-at-100us")
	b.ReportMetric(mp, "multipath-at-100us")
	b.ReportMetric(arq, "arq-at-100us")
}

// BenchmarkBurstTest measures the k-packet burst generalization and its
// sequence-metric analysis over a deep-reordering (ARQ) path. Metric:
// events a dupthresh-3 TCP would misread as loss, per 100 packets.
func BenchmarkBurstTest(b *testing.B) {
	var spurious float64
	for i := 0; i < b.N; i++ {
		n := simnet.New(simnet.Config{
			Seed: 91, Server: host.FreeBSD4(),
			Forward: simnet.PathSpec{
				LinkRate: 1_000_000_000,
				ARQ:      &netem.ARQConfig{FrameErrorRate: 0.15, RetransmitDelay: 2 * time.Millisecond},
			},
		})
		p := core.NewProber(n.Probe(), n.ServerAddr(), 92)
		res, err := p.BurstTest(core.BurstOptions{BurstSize: 8, Bursts: 25, Gap: 100 * time.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		f := res.ForwardAggregate()
		if f.Received > 0 {
			spurious = float64(f.SpuriousFastRetransmits(3)) / float64(f.Received) * 100
		}
	}
	b.ReportMetric(spurious, "spurious-frexmit-per-100pkt")
}

// BenchmarkImpact regenerates E9 (extension): Reno vs adaptive dupthresh
// under reordering. Metric: the adaptive sender's throughput advantage on
// the reordering path (ratio > 1 means the cited proposals' fix works).
func BenchmarkImpact(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunImpact(experiments.DefaultImpact())
		if err != nil {
			b.Fatal(err)
		}
		dirty := rep.Rows[len(rep.Rows)-1]
		if t := dirty.Reno.Throughput(); t > 0 {
			ratio = dirty.Adaptive.Throughput() / t
		}
	}
	b.ReportMetric(ratio, "adaptive-speedup")
}

// BenchmarkCooperative regenerates E10 (extension): single-ended DCT vs a
// cooperative IPPM-style session on identical paths. Metric: the maximum
// rate disagreement (small = the paper's tool matches the ground-truth
// methodology without its deployment cost).
func BenchmarkCooperative(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunCooperative(experiments.DefaultCooperative())
		if err != nil {
			b.Fatal(err)
		}
		worst = rep.MaxDisagreement()
	}
	b.ReportMetric(worst, "max-disagreement")
}
