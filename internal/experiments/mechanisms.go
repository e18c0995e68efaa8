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

// DefaultMechanisms returns the full-scale configuration of E8: a log-ish
// schedule from 0 to 4 ms that spans all three signatures.
func DefaultMechanisms() GapSweepConfig {
	return GapSweepConfig{
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

// MechanismCurve is one mechanism's gap signature.
type MechanismCurve struct {
	Name string
	core.GapDistribution
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
			fmt.Fprintf(w, " %10.4f", c.Points[i].Forward)
		}
		fmt.Fprintln(w)
	}
}

// RunMechanisms executes E8, an extension experiment: the paper's
// conclusion enumerates reordering causes beyond striped trunks —
// multi-path routing and layer-2 retransmission — and argues that the
// time-domain distribution is the representation that distinguishes them.
// It measures each mechanism's gap signature with the same sweep as Fig 7:
//
//   - striped trunk: exponential decay with the backlog drain constant;
//   - multi-path spray: a step — constant probability up to the member
//     delay spread, zero beyond;
//   - out-of-order L2 ARQ: a near-flat tail out to the retransmit delay,
//     orders of magnitude longer than queueing effects.
//
// An empty Gaps takes DefaultMechanisms' schedule. Every mechanism×gap
// cell is hermetic, so the report is identical at any worker count.
func RunMechanisms(cfg GapSweepConfig) (*MechanismsReport, error) {
	if len(cfg.Gaps) == 0 {
		cfg.Gaps = DefaultMechanisms().Gaps
	}
	mechanisms := []struct {
		name string
		path func() simnet.PathSpec
	}{
		{"trunk", trunkPath},
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
	points, err := sweepGaps(cfg, len(mechanisms), func(c, i int) (simnet.Config, uint64) {
		return simnet.Config{
			Seed:    cfg.Seed + uint64(i)*101,
			Server:  host.FreeBSD4(),
			Forward: mechanisms[c].path(),
		}, cfg.Seed + uint64(i)
	})
	if err != nil {
		return nil, err
	}
	rep := &MechanismsReport{}
	for c, m := range mechanisms {
		curve := points[c*len(cfg.Gaps) : (c+1)*len(cfg.Gaps)]
		rep.Curves = append(rep.Curves, MechanismCurve{m.name, core.GapDistribution{Points: curve}})
	}
	return rep, nil
}
