package experiments

import (
	"fmt"
	"io"
	"time"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/netem"
	"reorder/internal/simnet"
)

// GapSweepConfig parameterizes the two gap sweeps: E5 (Fig 7), the
// reordering probability of minimum-sized packet pairs as a function of
// inter-packet spacing over a striped trunk, and E8, the same curve over
// each reordering mechanism. Every point is one core.Prober.GapSweep on a
// net of its own.
type GapSweepConfig struct {
	// Gaps is the spacing schedule. Empty takes the experiment's default
	// schedule and leaves every other field as set.
	Gaps []time.Duration
	// SamplesPerPoint is the pair count per spacing (paper: 1000).
	SamplesPerPoint int
	// Seed drives everything.
	Seed uint64
	// Workers caps the parallel point runs (default 16). Each point's
	// simnet and prober derive from its seed and gap index alone, so the
	// curves are identical at any worker count.
	Workers int
}

// DefaultGapSweep follows the paper's sampling schedule: 1000 pairs at
// each of core.PaperGaps' 216 spacings.
func DefaultGapSweep() GapSweepConfig {
	return GapSweepConfig{Gaps: core.PaperGaps(), SamplesPerPoint: 1000, Seed: 77}
}

// GapSweepReport is the Fig 7 curve.
type GapSweepReport struct {
	core.GapDistribution
}

// WriteText prints the curve.
func (rep *GapSweepReport) WriteText(w io.Writer) {
	fmt.Fprintln(w, "E5 (Fig 7) reordering probability vs inter-packet spacing (dual connection test)")
	fmt.Fprintf(w, "%10s %9s %7s\n", "gap", "rate", "n")
	for _, p := range rep.Points {
		fmt.Fprintf(w, "%10s %9.4f %7d\n", p.Gap, p.Forward, p.Valid)
	}
}

// trunkPath is the Fig 7 forward path: a 2-way OC-12-class striped trunk
// with bursty cross traffic, behind a fast probe access link, so
// minimum-sized sample packets reach the trunk still back-to-back instead
// of having serialization delay floor the effective gap (the §IV-C size
// effect itself).
func trunkPath() simnet.PathSpec {
	return simnet.PathSpec{
		LinkRate: 1_000_000_000,
		Trunk: &netem.TrunkConfig{
			FanOut:         2,
			RateBps:        1_000_000_000,
			BurstProb:      0.15,
			MeanBurstBytes: 2500, // 20µs of drain time: the Fig 7 decay constant
		},
	}
}

// RunGapSweep executes E5. The forward path is trunkPath; the reverse path
// is clean so the forward measurement is unpolluted. An empty Gaps is
// core.PaperGaps.
func RunGapSweep(cfg GapSweepConfig) (*GapSweepReport, error) {
	if len(cfg.Gaps) == 0 {
		cfg.Gaps = core.PaperGaps()
	}
	points, err := sweepGaps(cfg, 1, func(_, i int) (simnet.Config, uint64) {
		return simnet.Config{
			Seed:    cfg.Seed + uint64(i),
			Server:  host.FreeBSD4(),
			Forward: trunkPath(),
		}, cfg.Seed + uint64(i)*31
	})
	if err != nil {
		return nil, err
	}
	return &GapSweepReport{core.GapDistribution{Points: points}}, nil
}

// sweepGaps measures one point per curve × gap cell on the campaign
// scheduler's pool. Cell (c, i) is a one-gap core.Prober.GapSweep at
// cfg.Gaps[i] on a fresh net, built from the config and prober seed that
// cell(c, i) returns, so the points are identical at any worker count.
// Curve c's points are [c×len(cfg.Gaps), (c+1)×len(cfg.Gaps)) of the result.
func sweepGaps(cfg GapSweepConfig, curves int, cell func(c, i int) (simnet.Config, uint64)) ([]core.GapRate, error) {
	n := len(cfg.Gaps)
	points := make([]core.GapRate, curves*n)
	err := forEach(cfg.Workers, len(points), func(index int) error {
		gap := cfg.Gaps[index%n]
		nc, proberSeed := cell(index/n, index%n)
		net := simnet.New(nc)
		dist, err := core.NewProber(net.Probe(), net.ServerAddr(), proberSeed).GapSweep(core.GapSweepOptions{
			Gaps:          []time.Duration{gap},
			SamplesPerGap: cfg.SamplesPerPoint,
		})
		if err != nil {
			return fmt.Errorf("gap %v: %w", gap, err)
		}
		points[index] = dist.Points[0]
		return nil
	})
	return points, err
}
