package experiments

import (
	"fmt"
	"io"
	"time"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/sim"
	"reorder/internal/simnet"
	"reorder/internal/tcpsender"
)

// ImpactConfig parameterizes E9, an extension experiment quantifying the
// paper's motivation (§I): TCP's fast retransmit misreads reordering as
// loss and "dramatically reduces its throughput", and the adaptive-
// threshold proposals the paper cites ([3], [20]) are supposed to fix it.
// For each reordering intensity, one bulk transfer runs with classic Reno
// (dupthresh 3) and one with the adaptive sender; alongside, the dual
// connection test measures the path and the burst test predicts the
// spurious-retransmit exposure from the reordering-extent distribution —
// §IV-C's claim that the distribution "can predict how different protocols
// would be impacted" made concrete.
type ImpactConfig struct {
	// Jitters are the per-packet delay spreads that create (deep,
	// loss-free) reordering on the data path. Empty takes DefaultImpact's
	// and leaves every other field as set.
	Jitters []time.Duration
	// Bytes per transfer.
	Bytes int
	// Repeats averages each cell over several differently seeded
	// transfers (default 3).
	Repeats int
	// Seed drives everything.
	Seed uint64
}

// DefaultImpact returns the full-scale configuration.
func DefaultImpact() ImpactConfig {
	return ImpactConfig{
		Jitters: []time.Duration{0, 500 * time.Microsecond, 1 * time.Millisecond,
			2 * time.Millisecond, 4 * time.Millisecond},
		Bytes:   512 << 10,
		Repeats: 3,
		Seed:    99,
	}
}

// ImpactRow is one reordering intensity's outcome.
type ImpactRow struct {
	Jitter time.Duration
	// MeasuredRate is the packet-pair reordering rate the dual connection
	// test reports for this path.
	MeasuredRate float64
	// PredictedDeepFrac is the fraction of packets 3-reordered in a burst
	// test train — the exposure a dupthresh-3 sender has on this path.
	PredictedDeepFrac float64
	// Reno and Adaptive are the two senders' results.
	Reno, Adaptive tcpsender.Stats
}

// ImpactReport aggregates the sweep.
type ImpactReport struct {
	Rows []ImpactRow
}

// WriteText prints the table.
func (rep *ImpactReport) WriteText(w io.Writer) {
	fmt.Fprintln(w, "E9 (extension) protocol impact of reordering: Reno vs adaptive dupthresh")
	fmt.Fprintf(w, "%8s %9s %9s | %10s %8s %8s | %10s %8s %8s %6s\n",
		"jitter", "pairrate", "3reorder",
		"reno-bps", "fastrtx", "halvings",
		"adapt-bps", "fastrtx", "halvings", "thresh")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%8s %9.4f %9.4f | %10.0f %8d %8d | %10.0f %8d %8d %6d\n",
			r.Jitter, r.MeasuredRate, r.PredictedDeepFrac,
			r.Reno.Throughput(), r.Reno.FastRetransmits, r.Reno.CwndHalvings,
			r.Adaptive.Throughput(), r.Adaptive.FastRetransmits, r.Adaptive.CwndHalvings,
			r.Adaptive.FinalDupThresh)
	}
}

// impactPath is the data path: fast access link so jitter displaces many
// positions, no loss — all damage comes from reordering.
func impactPath(jitter time.Duration) simnet.PathSpec {
	return simnet.PathSpec{LinkRate: 100_000_000, Jitter: jitter}
}

// RunImpact executes E9.
func RunImpact(cfg ImpactConfig) (*ImpactReport, error) {
	if len(cfg.Jitters) == 0 {
		cfg.Jitters = DefaultImpact().Jitters
	}
	rep := &ImpactReport{}
	for i, jitter := range cfg.Jitters {
		seed := cfg.Seed + uint64(i)*1000
		row := ImpactRow{Jitter: jitter}

		// Measure the path with the paper's tools first.
		mn := simnet.New(simnet.Config{Seed: seed, Server: host.FreeBSD4(), Forward: impactPath(jitter)})
		prober := core.NewProber(mn.Probe(), mn.ServerAddr(), seed^0xafe)
		if res, err := prober.DualConnectionTest(core.DCTOptions{Samples: 200}); err == nil {
			row.MeasuredRate = res.Forward().Rate()
		}
		if burst, err := prober.BurstTest(core.BurstOptions{BurstSize: 10, Bursts: 30, Gap: 120 * time.Microsecond}); err == nil {
			f := burst.ForwardAggregate()
			if f.Received > 0 {
				row.PredictedDeepFrac = float64(f.SpuriousFastRetransmits(3)) / float64(f.Received)
			}
		}

		// Then run the two senders over identically seeded paths,
		// averaging each over the configured repeats.
		repeats := cfg.Repeats
		if repeats < 1 {
			repeats = 1
		}
		for _, adaptive := range []bool{false, true} {
			var agg tcpsender.Stats
			for r := 0; r < repeats; r++ {
				n := simnet.New(simnet.Config{Seed: seed + uint64(r), Server: host.FreeBSD4(), Forward: impactPath(jitter)})
				s := tcpsender.New(n.Loop, tcpsender.Config{Bytes: cfg.Bytes, Adaptive: adaptive},
					n.ProbeAddr(), n.ServerAddr(), n.IDs, sim.NewRand(seed^0x5e4d+uint64(r), 7), nil)
				s.SetOutput(n.AttachEndpoint(s))
				s.Start()
				n.Loop.RunUntil(sim.Time(10 * time.Minute))
				if !s.Done() {
					return nil, fmt.Errorf("impact: transfer at jitter %v (adaptive=%v) did not finish", jitter, adaptive)
				}
				st := s.Stats()
				agg.BytesAcked += st.BytesAcked
				agg.Elapsed += st.Elapsed
				agg.FastRetransmits += st.FastRetransmits
				agg.SpuriousFast += st.SpuriousFast
				agg.Timeouts += st.Timeouts
				agg.CwndHalvings += st.CwndHalvings
				if st.FinalDupThresh > agg.FinalDupThresh {
					agg.FinalDupThresh = st.FinalDupThresh
				}
			}
			if adaptive {
				row.Adaptive = agg
			} else {
				row.Reno = agg
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}
