package core

import (
	"sort"
	"time"
)

// GapSweepOptions configures Prober.GapSweep, the packaged form of the
// paper's §IV-C methodology: the dual connection test repeated across a
// schedule of inter-packet spacings, yielding the time-domain distribution
// of the path's reordering process.
type GapSweepOptions struct {
	// Gaps is the spacing schedule. Empty uses PaperGaps.
	Gaps []time.Duration
	// SamplesPerGap is the pair count per spacing (paper: 1000;
	// default 200).
	SamplesPerGap int
}

func (o GapSweepOptions) defaults() GapSweepOptions {
	if len(o.Gaps) == 0 {
		o.Gaps = PaperGaps()
	}
	if o.SamplesPerGap == 0 {
		o.SamplesPerGap = 200
	}
	return o
}

// PaperGaps returns the paper's schedule: 1µs steps from 0 below 200µs,
// then 20µs steps from 200µs to 500µs inclusive — 216 spacings.
func PaperGaps() []time.Duration {
	const fine, coarse = time.Microsecond, 20 * time.Microsecond
	var gaps []time.Duration
	for g := time.Duration(0); g < 200*time.Microsecond; g += fine {
		gaps = append(gaps, g)
	}
	for g := 200 * time.Microsecond; g <= 500*time.Microsecond; g += coarse {
		gaps = append(gaps, g)
	}
	return gaps
}

// GapRate is one spacing's measured reordering probability.
type GapRate struct {
	Gap     time.Duration
	Forward float64
	Reverse float64
	Valid   int // forward samples contributing to the rate
}

// GapDistribution is the measured time-domain distribution, its points in
// increasing gap order.
type GapDistribution struct {
	Points []GapRate
}

// ForwardAt returns the forward rate at the measured gap nearest the given
// one; a gap halfway between two points reads the smaller.
func (d *GapDistribution) ForwardAt(gap time.Duration) float64 {
	if len(d.Points) == 0 {
		return 0
	}
	i := sort.Search(len(d.Points), func(i int) bool { return d.Points[i].Gap >= gap })
	if i == len(d.Points) {
		i--
	}
	if i > 0 && gap-d.Points[i-1].Gap <= d.Points[i].Gap-gap {
		i--
	}
	return d.Points[i].Forward
}

// DecayGap returns the smallest measured spacing at which the forward rate
// stays at or below the threshold from there on — the answer to "how much
// pacing makes this path's reordering irrelevant to my protocol", the
// question §IV-C argues the distribution (and not a scalar rate) answers.
// ok is false if the rate never settles below the threshold.
func (d *GapDistribution) DecayGap(threshold float64) (time.Duration, bool) {
	for i := range d.Points {
		all := true
		for _, p := range d.Points[i:] {
			if p.Forward > threshold {
				all = false
				break
			}
		}
		if all {
			return d.Points[i].Gap, true
		}
	}
	return 0, false
}

// GapSweep measures the reordering probability as a function of the
// spacing between sample packets, using the dual connection test (whose
// acknowledgments are all immediate, so spacing is controlled precisely).
// The IPID prevalidation runs once, on the first point.
func (p *Prober) GapSweep(o GapSweepOptions) (*GapDistribution, error) {
	o = o.defaults()
	dist := &GapDistribution{}
	skipValidation := false
	for _, gap := range o.Gaps {
		res, err := p.DualConnectionTest(DCTOptions{Samples: o.SamplesPerGap, Gap: gap, SkipValidation: skipValidation})
		if err != nil {
			return nil, err
		}
		skipValidation = true // validated once; the host does not change mid-sweep
		f, r := res.Forward(), res.Reverse()
		dist.Points = append(dist.Points, GapRate{
			Gap: gap, Forward: f.Rate(), Reverse: r.Rate(), Valid: f.Valid(),
		})
	}
	sort.Slice(dist.Points, func(i, j int) bool { return dist.Points[i].Gap < dist.Points[j].Gap })
	return dist, nil
}
