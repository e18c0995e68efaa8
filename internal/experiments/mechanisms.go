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

// MechanismsConfig parameterizes E8, an extension experiment: the paper's
// conclusion enumerates reordering causes beyond striped trunks —
// multi-path routing and layer-2 retransmission — and argues that the
// time-domain distribution is the representation that distinguishes them.
// This experiment measures each mechanism's gap signature with the same
// dual connection test sweep as Fig 7:
//
//   - striped trunk: exponential decay with the backlog drain constant;
//   - multi-path spray: a step — constant probability up to the member
//     delay spread, zero beyond;
//   - out-of-order L2 ARQ: a near-flat tail out to the retransmit delay,
//     orders of magnitude longer than queueing effects.
type MechanismsConfig struct {
	// Gaps is the spacing schedule (defaults to a log-ish sweep from 0 to
	// 4 ms that spans all three signatures).
	Gaps []time.Duration
	// SamplesPerPoint is the pair count per spacing.
	SamplesPerPoint int
	// Seed drives everything.
	Seed uint64
	// Workers caps the parallel cell runs (default 16). Each mechanism×gap
	// cell is hermetic — its simnet and prober derive from the cell's seed
	// alone — so the report is identical at any worker count.
	Workers int
}

// DefaultMechanisms returns the full-scale configuration.
func DefaultMechanisms() MechanismsConfig {
	return MechanismsConfig{
		Gaps: []time.Duration{
			0, 10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
			100 * time.Microsecond, 150 * time.Microsecond, 250 * time.Microsecond,
			500 * time.Microsecond, 1 * time.Millisecond, 2 * time.Millisecond,
			4 * time.Millisecond,
		},
		SamplesPerPoint: 500,
		Seed:            88,
	}
}

// QuickMechanisms is the benchmark-scale version.
func QuickMechanisms() MechanismsConfig {
	cfg := DefaultMechanisms()
	cfg.SamplesPerPoint = 150
	return cfg
}

// MechanismCurve is one mechanism's gap signature.
type MechanismCurve struct {
	Name   string
	Points []GapPoint
}

// RateAt returns the rate at the nearest measured gap.
func (c *MechanismCurve) RateAt(gap time.Duration) float64 {
	r := GapSweepReport{Points: c.Points}
	return r.RateAt(gap)
}

// MechanismsReport holds all curves.
type MechanismsReport struct {
	Curves []MechanismCurve
}

// Curve returns the named mechanism's curve.
func (rep *MechanismsReport) Curve(name string) (*MechanismCurve, bool) {
	for i := range rep.Curves {
		if rep.Curves[i].Name == name {
			return &rep.Curves[i], true
		}
	}
	return nil, false
}

// WriteText prints the curves side by side.
func (rep *MechanismsReport) WriteText(w io.Writer) {
	fmt.Fprintln(w, "E8 (extension) time-domain signatures of reordering mechanisms")
	fmt.Fprintf(w, "%10s", "gap")
	for _, c := range rep.Curves {
		fmt.Fprintf(w, " %10s", c.Name)
	}
	fmt.Fprintln(w)
	if len(rep.Curves) == 0 {
		return
	}
	for i := range rep.Curves[0].Points {
		fmt.Fprintf(w, "%10s", rep.Curves[0].Points[i].Gap)
		for _, c := range rep.Curves {
			fmt.Fprintf(w, " %10.4f", c.Points[i].Rate)
		}
		fmt.Fprintln(w)
	}
}

// RunMechanisms executes E8. Cells run on the campaign span scheduler:
// every mechanism×gap cell is hermetic, so the sweep parallelizes freely
// and the report bytes are identical at any worker count.
func RunMechanisms(cfg MechanismsConfig) (*MechanismsReport, error) {
	if len(cfg.Gaps) == 0 {
		workers := cfg.Workers
		cfg = DefaultMechanisms()
		cfg.Workers = workers
	}
	mechanisms := []struct {
		name string
		path func() simnet.PathSpec
	}{
		{"trunk", func() simnet.PathSpec {
			return simnet.PathSpec{
				LinkRate: 1_000_000_000,
				Trunk:    &netem.TrunkConfig{FanOut: 2, RateBps: 1_000_000_000, BurstProb: 0.15, MeanBurstBytes: 2500},
			}
		}},
		{"multipath", func() simnet.PathSpec {
			return simnet.PathSpec{
				LinkRate: 1_000_000_000,
				MultiPath: &netem.MultiPathConfig{
					Delays: []time.Duration{time.Millisecond + 150*time.Microsecond, time.Millisecond},
				},
			}
		}},
		{"l2-arq", func() simnet.PathSpec {
			return simnet.PathSpec{
				LinkRate: 1_000_000_000,
				ARQ:      &netem.ARQConfig{FrameErrorRate: 0.10, RetransmitDelay: 2 * time.Millisecond},
			}
		}},
	}
	// Flatten the mechanism × gap grid so forEach can span-dispatch it.
	type cell struct{ mech, gi int }
	cells := make([]cell, 0, len(mechanisms)*len(cfg.Gaps))
	for mi := range mechanisms {
		for gi := range cfg.Gaps {
			cells = append(cells, cell{mi, gi})
		}
	}
	points := make([]GapPoint, len(cells))
	err := forEach(cfg.Workers, len(cells), func(index int) error {
		c := cells[index]
		m, gap := mechanisms[c.mech], cfg.Gaps[c.gi]
		n := simnet.New(simnet.Config{
			Seed:    cfg.Seed + uint64(c.gi)*101,
			Server:  host.FreeBSD4(),
			Forward: m.path(),
		})
		prober := core.NewProber(n.Probe(), n.ServerAddr(), cfg.Seed+uint64(c.gi))
		res, err := prober.DualConnectionTest(core.DCTOptions{Samples: cfg.SamplesPerPoint, Gap: gap})
		if err != nil {
			return fmt.Errorf("mechanism %s gap %v: %w", m.name, gap, err)
		}
		f := res.Forward()
		points[index] = GapPoint{Gap: gap, Rate: f.Rate(), Valid: f.Valid()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &MechanismsReport{}
	for mi, m := range mechanisms {
		rep.Curves = append(rep.Curves, MechanismCurve{
			Name:   m.name,
			Points: points[mi*len(cfg.Gaps) : (mi+1)*len(cfg.Gaps)],
		})
	}
	return rep, nil
}
