package experiments

import (
	"fmt"
	"io"
	"time"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/ippm"
	"reorder/internal/simnet"
)

// CooperativeConfig parameterizes E10, an extension experiment: the
// single-ended dual connection test validated against a cooperative
// IETF-IPPM-style session ([8]) on identical paths. The cooperative
// receiver sees the exact arrival order, so it is ground truth with
// deployment cost; the paper's technique must track it without any remote
// deployment.
type CooperativeConfig struct {
	// SwapProbs are the path intensities to compare at. Empty takes
	// DefaultCooperative's and leaves every other field as set.
	SwapProbs []float64
	// Samples per measurement (both methodologies).
	Samples int
	// Seed drives everything.
	Seed uint64
}

// DefaultCooperative returns the full-scale configuration.
func DefaultCooperative() CooperativeConfig {
	return CooperativeConfig{
		SwapProbs: []float64{0, 0.01, 0.03, 0.05, 0.10, 0.15, 0.40},
		Samples:   400,
		Seed:      111,
	}
}

// CooperativeRow is one intensity's comparison.
type CooperativeRow struct {
	SwapProb float64
	// DCTRate is the single-ended forward estimate.
	DCTRate float64
	// IPPMRate is the cooperative receiver's exchange ratio.
	IPPMRate float64
	// IPPMReorderedRatio is the RFC-4737-style reordered-packet ratio.
	IPPMReorderedRatio float64
}

// CooperativeReport aggregates the sweep.
type CooperativeReport struct {
	Rows []CooperativeRow
}

// MaxDisagreement returns the largest |DCT - IPPM| exchange-rate gap.
func (rep *CooperativeReport) MaxDisagreement() float64 {
	worst := 0.0
	for _, r := range rep.Rows {
		d := r.DCTRate - r.IPPMRate
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// WriteText prints the comparison.
func (rep *CooperativeReport) WriteText(w io.Writer) {
	fmt.Fprintln(w, "E10 (extension) single-ended DCT vs cooperative IPPM session, same paths")
	fmt.Fprintf(w, "%8s %10s %10s %12s\n", "swap", "dct-rate", "ippm-rate", "ippm-reord")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%8.2f %10.4f %10.4f %12.4f\n",
			r.SwapProb, r.DCTRate, r.IPPMRate, r.IPPMReorderedRatio)
	}
	fmt.Fprintf(w, "max |dct-ippm| disagreement: %.4f\n", rep.MaxDisagreement())
}

// RunCooperative executes E10.
func RunCooperative(cfg CooperativeConfig) (*CooperativeReport, error) {
	if len(cfg.SwapProbs) == 0 {
		cfg.SwapProbs = DefaultCooperative().SwapProbs
	}
	rep := &CooperativeReport{}
	for i, sp := range cfg.SwapProbs {
		seed := cfg.Seed + uint64(i)*17
		row := CooperativeRow{SwapProb: sp}

		// Single-ended measurement: no remote deployment.
		dn := simnet.New(simnet.Config{
			Seed: seed, Server: host.FreeBSD4(),
			Forward: simnet.PathSpec{SwapProb: sp},
		})
		prober := core.NewProber(dn.Probe(), dn.ServerAddr(), seed^0xc0)
		res, err := prober.DualConnectionTest(core.DCTOptions{Samples: cfg.Samples})
		if err != nil {
			return nil, err
		}
		row.DCTRate = res.Forward().Rate()

		// Cooperative measurement: receiver deployed on the host.
		cn := simnet.New(simnet.Config{
			Seed: seed, Server: host.FreeBSD4(),
			Forward: simnet.PathSpec{SwapProb: sp},
		})
		recv := ippm.Attach(cn.Hosts[0], cn.Loop)
		// Pair up the test packets the way the DCT does (back-to-back
		// pairs separated by a pause) so the two methodologies sample the
		// same process identically.
		irep, err := ippm.RunSession(cn.Probe(), cn.ServerAddr(), recv, ippm.SessionConfig{
			Count: cfg.Samples * 2,
			Gap:   0,
			Drain: 2 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		row.IPPMRate = irep.Metrics.ExchangeRatio()
		row.IPPMReorderedRatio = irep.Metrics.Ratio()
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}
