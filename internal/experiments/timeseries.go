package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/sim"
	"reorder/internal/simnet"
)

// TimeSeriesConfig parameterizes E3 (Fig 6): interleaved single-connection
// and SYN test measurements of one load-balanced path whose reordering rate
// drifts over time — the www.apple.com experiment, where the dual
// connection test was ruled out by the load balancer.
type TimeSeriesConfig struct {
	// Rounds is the number of interleaved measurement rounds.
	Rounds int
	// Samples per measurement (paper: 15).
	Samples int
	// Period is the drift period of the underlying reordering process.
	Period time.Duration
	// PeakRate is the maximum instantaneous swap probability.
	PeakRate float64
	// Seed drives everything.
	Seed uint64
}

// DefaultTimeSeries mirrors Fig 6's shape. Forty samples per measurement
// give per-round rate estimates enough resolution (2.5%) to track a peak
// drift of 15%.
func DefaultTimeSeries() TimeSeriesConfig {
	return TimeSeriesConfig{Rounds: 60, Samples: 40, Period: 10 * time.Minute, PeakRate: 0.15, Seed: 66}
}

// TimeSeriesPoint is one interleaved measurement round.
type TimeSeriesPoint struct {
	At       time.Duration // virtual time of the round
	TrueRate float64       // instantaneous configured swap probability
	SCT, SYN float64       // measured forward rates
	SCTValid int
	SYNValid int
}

// TimeSeriesReport is the Fig 6 series.
type TimeSeriesReport struct {
	Points      []TimeSeriesPoint
	DCTExcluded bool // the load balancer must rule the DCT out
}

// Correlation returns the Pearson correlation between the two tests'
// series — the quantitative version of Fig 6's "the tests track each
// other".
func (rep *TimeSeriesReport) Correlation() float64 {
	var xs, ys []float64
	for _, p := range rep.Points {
		xs = append(xs, p.SCT)
		ys = append(ys, p.SYN)
	}
	return pearson(xs, ys)
}

func pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// WriteText prints the series.
func (rep *TimeSeriesReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "E3 (Fig 6) forward reordering vs time on a load-balanced path (DCT excluded: %v)\n",
		rep.DCTExcluded)
	fmt.Fprintf(w, "%10s %9s %9s %9s\n", "t", "true", "sct", "syn")
	for _, p := range rep.Points {
		fmt.Fprintf(w, "%10s %9.4f %9.4f %9.4f\n", p.At.Round(time.Second), p.TrueRate, p.SCT, p.SYN)
	}
	fmt.Fprintf(w, "SCT/SYN correlation: %.3f\n", rep.Correlation())
}

// RunTimeSeries executes E3.
func RunTimeSeries(cfg TimeSeriesConfig) (*TimeSeriesReport, error) {
	rate := func(t sim.Time) float64 {
		phase := 2 * math.Pi * float64(t) / float64(cfg.Period)
		return cfg.PeakRate * 0.5 * (1 - math.Cos(phase))
	}
	n := simnet.New(simnet.Config{
		Seed: cfg.Seed,
		Backends: []host.Profile{
			host.FreeBSD4(), host.FreeBSD4(), host.Linux22(), host.Windows2000(),
		},
		Forward: simnet.PathSpec{SwapProbFn: rate},
	})
	prober := core.NewProber(n.Probe(), n.ServerAddr(), cfg.Seed^0x7e5)
	rep := &TimeSeriesReport{}

	// Confirm the load balancer rules the dual connection test out, as on
	// the paper's path. (With a handful of backends the two validation
	// connections can, by luck, land together; the exclusion is expected,
	// not guaranteed.)
	_, err := prober.DualConnectionTest(core.DCTOptions{Samples: 2})
	rep.DCTExcluded = errors.Is(err, core.ErrIPIDUnusable)

	interval := cfg.Period / time.Duration(cfg.Rounds) * 2 // cover ~2 periods
	res := new(core.Result)
	for round := 0; round < cfg.Rounds; round++ {
		pt := TimeSeriesPoint{
			At:       n.Loop.Now().Duration(),
			TrueRate: rate(n.Loop.Now()),
		}
		if err := prober.SurveyTestInto(res, "single", cfg.Samples); err == nil {
			f := res.Forward()
			pt.SCT, pt.SCTValid = f.Rate(), f.Valid()
		}
		if err := prober.SurveyTestInto(res, "syn", cfg.Samples); err == nil {
			f := res.Forward()
			pt.SYN, pt.SYNValid = f.Rate(), f.Valid()
		}
		rep.Points = append(rep.Points, pt)
		n.Probe().Sleep(interval)
	}
	return rep, nil
}
