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

// GapSweepConfig parameterizes E5 (Fig 7): reordering probability of
// minimum-sized packet pairs as a function of inter-packet spacing,
// measured with the dual connection test over a path whose reordering
// comes from per-packet striping across parallel links.
type GapSweepConfig struct {
	// FineStep and FineMax define the dense region (paper: 1µs steps
	// below 200µs).
	FineStep, FineMax time.Duration
	// CoarseStep and CoarseMax define the sparse tail (paper: 20µs steps
	// thereafter).
	CoarseStep, CoarseMax time.Duration
	// SamplesPerPoint is the pair count per spacing (paper: 1000).
	SamplesPerPoint int
	// Trunk overrides the striped-trunk model; nil uses a 2-way OC-12-
	// class trunk with bursty cross traffic.
	Trunk *netem.TrunkConfig
	// Seed drives everything.
	Seed uint64
	// Workers caps the parallel point runs (default 16). Each spacing's
	// simnet and prober derive from its point index alone, so the curve is
	// identical at any worker count.
	Workers int
}

// DefaultGapSweep follows the paper's sampling schedule. It is sized for
// `reorder timedist`; benchmarks use QuickGapSweep.
func DefaultGapSweep() GapSweepConfig {
	return GapSweepConfig{
		FineStep: time.Microsecond, FineMax: 200 * time.Microsecond,
		CoarseStep: 20 * time.Microsecond, CoarseMax: 500 * time.Microsecond,
		SamplesPerPoint: 1000,
		Seed:            77,
	}
}

// QuickGapSweep is a sparse, fast version preserving the curve's shape.
func QuickGapSweep() GapSweepConfig {
	return GapSweepConfig{
		FineStep: 25 * time.Microsecond, FineMax: 200 * time.Microsecond,
		CoarseStep: 100 * time.Microsecond, CoarseMax: 500 * time.Microsecond,
		SamplesPerPoint: 200,
		Seed:            77,
	}
}

// GapPoint is one spacing's measurement.
type GapPoint struct {
	Gap   time.Duration
	Rate  float64
	Valid int // samples contributing to the rate
}

// GapSweepReport is the Fig 7 curve.
type GapSweepReport struct {
	Points []GapPoint
}

// RateAt returns the measured rate at the point nearest the given gap.
func (rep *GapSweepReport) RateAt(gap time.Duration) float64 {
	best, bestDist := 0.0, time.Duration(1<<62)
	for _, p := range rep.Points {
		d := p.Gap - gap
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			bestDist, best = d, p.Rate
		}
	}
	return best
}

// WriteText prints the curve.
func (rep *GapSweepReport) WriteText(w io.Writer) {
	fmt.Fprintln(w, "E5 (Fig 7) reordering probability vs inter-packet spacing (dual connection test)")
	fmt.Fprintf(w, "%10s %9s %7s\n", "gap", "rate", "n")
	for _, p := range rep.Points {
		fmt.Fprintf(w, "%10s %9.4f %7d\n", p.Gap, p.Rate, p.Valid)
	}
}

// gaps expands the sampling schedule.
func (cfg GapSweepConfig) gaps() []time.Duration {
	var out []time.Duration
	for g := time.Duration(0); g < cfg.FineMax; g += cfg.FineStep {
		out = append(out, g)
	}
	for g := cfg.FineMax; g <= cfg.CoarseMax; g += cfg.CoarseStep {
		out = append(out, g)
	}
	return out
}

// RunGapSweep executes E5. The forward path carries the striped trunk; the
// reverse path is clean so the forward measurement is unpolluted.
func RunGapSweep(cfg GapSweepConfig) (*GapSweepReport, error) {
	trunk := cfg.Trunk
	if trunk == nil {
		trunk = &netem.TrunkConfig{
			FanOut:         2,
			RateBps:        1_000_000_000,
			BurstProb:      0.15,
			MeanBurstBytes: 2500, // 20µs of drain time: the Fig 7 decay constant
		}
	}
	gaps := cfg.gaps()
	points := make([]GapPoint, len(gaps))
	err := forEach(cfg.Workers, len(gaps), func(i int) error {
		n := simnet.New(simnet.Config{
			Seed:   cfg.Seed + uint64(i),
			Server: host.FreeBSD4(),
			// A fast probe access link: minimum-sized sample packets must
			// reach the trunk still back-to-back, or serialization delay
			// floors the effective gap (the §IV-C size effect itself).
			Forward: simnet.PathSpec{LinkRate: 1_000_000_000, Trunk: trunk},
		})
		prober := core.NewProber(n.Probe(), n.ServerAddr(), cfg.Seed+uint64(i)*31)
		res, err := prober.DualConnectionTest(core.DCTOptions{
			Samples: cfg.SamplesPerPoint,
			Gap:     gaps[i],
		})
		if err != nil {
			return err
		}
		f := res.Forward()
		points[i] = GapPoint{Gap: gaps[i], Rate: f.Rate(), Valid: f.Valid()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &GapSweepReport{Points: points}, nil
}
