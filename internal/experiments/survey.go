package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/ipid"
	"reorder/internal/netem"
	"reorder/internal/sim"
	"reorder/internal/simnet"
	"reorder/internal/stats"
)

// TestNames are the four techniques in the survey's round-robin order,
// shared with the campaign subsystem so both layers agree on the set.
var TestNames = core.Tests

// SurveyConfig parameterizes E2/E4/E6: the §IV-B live-host survey. The
// paper probed 50 hosts for 20 days, cycling the four tests round-robin,
// ~850 measurements per host per test, 15 samples per measurement.
type SurveyConfig struct {
	// Hosts is the population size (paper: 15 hand-picked + 35 random = 50).
	Hosts int
	// Rounds is the number of measurement rounds (each round runs every
	// test once against every host).
	Rounds int
	// Samples per measurement (paper: 15).
	Samples int
	// Seed drives host population synthesis and all measurement noise.
	Seed uint64
	// Workers sizes the campaign scheduler pool surveying hosts
	// concurrently (0 = the scheduler default). Each host's scenario is
	// hermetic, so concurrency never changes the report.
	Workers int
}

// DefaultSurvey mirrors the paper's shape at a tractable number of rounds.
func DefaultSurvey() SurveyConfig {
	return SurveyConfig{Hosts: 50, Rounds: 40, Samples: 15, Seed: 719}
}

// HostRecord describes one surveyed host and its measurement outcomes.
type HostRecord struct {
	Name       string
	IPIDPolicy string
	Balanced   bool // behind a load balancer

	// TrueFwd and TrueRev are the hidden path swap probabilities —
	// unknowable to a real surveyor, recorded here for report context.
	TrueFwd, TrueRev float64

	// DCTExcluded is set when IPID prevalidation ruled the host out, with
	// the reason: ipid.ReasonZero, ipid.ReasonNonMonotonic, or
	// "unreachable" when prevalidation could not connect.
	DCTExcluded string

	// FwdSeries and RevSeries hold the per-round measured rates, keyed by
	// test name. Rounds where a test errored contribute no entry.
	FwdSeries, RevSeries map[string][]float64

	// Measurements and WithReordering implement the §IV-B statistic
	// "more than 15% of measurements had at least one reordered sample".
	Measurements, WithReordering int
}

// MeanFwd returns the mean forward rate over rounds for one test.
func (h *HostRecord) MeanFwd(test string) float64 { return stats.Summarize(h.FwdSeries[test]).Mean }

// PathRate returns the host's overall measured reordering rate: the mean of
// all per-round forward and reverse rates across tests, which is what the
// Fig 5 CDF is computed over.
func (h *HostRecord) PathRate() float64 {
	var all []float64
	for _, t := range TestNames {
		all = append(all, h.FwdSeries[t]...)
		all = append(all, h.RevSeries[t]...)
	}
	return stats.Summarize(all).Mean
}

// SurveyReport aggregates the survey.
type SurveyReport struct {
	Config SurveyConfig
	Hosts  []*HostRecord
}

// CDF returns the Fig 5 curve: the empirical CDF of per-path reordering
// rates.
func (rep *SurveyReport) CDF() *stats.CDF {
	var rates []float64
	for _, h := range rep.Hosts {
		rates = append(rates, h.PathRate())
	}
	return stats.NewCDF(rates)
}

// FractionWithReordering returns the fraction of paths whose measured rate
// was nonzero (paper: over 40%).
func (rep *SurveyReport) FractionWithReordering() float64 {
	n := 0
	for _, h := range rep.Hosts {
		if h.PathRate() > 0 {
			n++
		}
	}
	if len(rep.Hosts) == 0 {
		return 0
	}
	return float64(n) / float64(len(rep.Hosts))
}

// FractionMeasurementsReordered returns the fraction of individual
// measurements with at least one reordered sample (paper: more than 15%).
func (rep *SurveyReport) FractionMeasurementsReordered() float64 {
	meas, hit := 0, 0
	for _, h := range rep.Hosts {
		meas += h.Measurements
		hit += h.WithReordering
	}
	if meas == 0 {
		return 0
	}
	return float64(hit) / float64(meas)
}

// DCTExclusions returns how many hosts were ruled out of the dual
// connection test, by reason (paper: 9 hosts with constant zero IPIDs,
// 8 whose IPIDs were not monotonic).
func (rep *SurveyReport) DCTExclusions() map[string]int {
	m := map[string]int{}
	for _, h := range rep.Hosts {
		if h.DCTExcluded != "" {
			m[h.DCTExcluded]++
		}
	}
	return m
}

// WriteText prints the per-host table, the Fig 5 CDF and the headline
// statistics.
func (rep *SurveyReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "E2/E6 survey: %d hosts x %d rounds x 4 tests, %d samples each\n",
		len(rep.Hosts), rep.Config.Rounds, rep.Config.Samples)
	fmt.Fprintf(w, "%-22s %-16s %-3s %9s %9s %9s  %s\n",
		"host", "ipid", "lb", "true-fwd", "sct-fwd", "syn-fwd", "dct")
	for _, h := range rep.Hosts {
		lb := ""
		if h.Balanced {
			lb = "lb"
		}
		dct := "ok"
		if h.DCTExcluded != "" {
			dct = "excluded:" + h.DCTExcluded
		}
		fmt.Fprintf(w, "%-22s %-16s %-3s %9.4f %9.4f %9.4f  %s\n",
			h.Name, h.IPIDPolicy, lb, h.TrueFwd, h.MeanFwd("single"), h.MeanFwd("syn"), dct)
	}
	fmt.Fprintf(w, "\nFig 5 CDF of per-path reordering rates:\n")
	for _, pt := range rep.CDF().Points() {
		fmt.Fprintf(w, "  rate<=%.4f: %.2f\n", pt.X, pt.Y)
	}
	fmt.Fprintf(w, "paths with some reordering: %.0f%% (paper: >40%%)\n", rep.FractionWithReordering()*100)
	fmt.Fprintf(w, "measurements with >=1 reordered sample: %.1f%% (paper: >15%%)\n",
		rep.FractionMeasurementsReordered()*100)
	ex := rep.DCTExclusions()
	fmt.Fprintf(w, "DCT exclusions: %s=%d %s=%d (paper: 9 and 8 of 50)\n",
		ipid.ReasonZero, ex[ipid.ReasonZero], ipid.ReasonNonMonotonic, ex[ipid.ReasonNonMonotonic])
}

// surveyHost is one synthesized host: a profile plus hidden path truth.
type surveyHost struct {
	name     string
	cfg      simnet.Config
	balanced bool
	fwd, rev float64
}

// synthesizePopulation builds the host list: a hand-picked slab modeled on
// the paper's "all major operating systems plus several highly popular
// (load-balanced) hosts", then random draws from the catalog.
//
// Path reordering truth is gap-dependent, the §IV-C physics: reordering
// paths route through a striped trunk with per-path cross-traffic
// intensity, so minimum-sized back-to-back probes see more reordering than
// serialization-spread data packets (the mechanism behind the transfer
// test's underestimation in §IV-B), plus a small slowly drifting swapper
// component so that measurements taken at different times genuinely
// differ, as on real paths. A bit under half the paths reorder at all, and
// forward intensity exceeds reverse.
func synthesizePopulation(cfg SurveyConfig) []surveyHost {
	rng := sim.NewRand(cfg.Seed, 0x50b)
	var hosts []surveyHost

	pathSpecs := func() (fwd, rev simnet.PathSpec, fi, ri float64) {
		fwd = simnet.PathSpec{LinkRate: 100_000_000}
		rev = simnet.PathSpec{LinkRate: 100_000_000}
		if rng.Float64() < 0.55 {
			return fwd, rev, 0, 0 // most paths are clean
		}
		fi = 0.03 + rng.ExpFloat64()*0.10 // trunk burst probability
		if fi > 0.5 {
			fi = 0.5
		}
		ri = fi * 0.35 // forward-dominant asymmetry (single vantage point)
		mean := 600 + rng.ExpFloat64()*900
		fwd.Trunk = &netem.TrunkConfig{FanOut: 2, RateBps: 622_000_000, BurstProb: fi, MeanBurstBytes: mean}
		rev.Trunk = &netem.TrunkConfig{FanOut: 2, RateBps: 622_000_000, BurstProb: ri, MeanBurstBytes: mean}
		// Slow drift: a residual swap component whose rate wanders over
		// tens of minutes, so interleaved tests see a moving target.
		amp := rng.Float64() * 0.035
		period := time.Duration(5+rng.IntN(25)) * time.Minute
		phase := rng.Float64() * 2 * math.Pi
		fwd.SwapProbFn = driftFn(amp, period, phase)
		rev.SwapProbFn = driftFn(amp*0.35, period, phase+1)
		return fwd, rev, fi, ri
	}

	add := func(name string, sc simnet.Config, balanced bool) {
		f, r, fi, ri := pathSpecs()
		sc.Seed = rng.Uint64()
		sc.Forward, sc.Reverse = f, r
		size := core.TransferObjectSize(cfg.Samples)
		sc.Server.TCP.ObjectSize = size
		for i := range sc.Backends {
			sc.Backends[i].TCP.ObjectSize = size
		}
		hosts = append(hosts, surveyHost{name: name, cfg: sc, balanced: balanced, fwd: fi, rev: ri})
	}

	// The hand-picked 15: one per profile, plus popular load-balanced
	// sites (the paper's yahoo/hotmail analogues) and Linux 2.4 boxes.
	catalog := host.Catalog()
	for _, p := range catalog { // 8 profiles
		add("picked-"+p.Name, simnet.Config{Server: p}, false)
	}
	for i := 0; i < 3 && len(hosts) < cfg.Hosts; i++ { // 3 popular LB'd sites
		backends := []host.Profile{host.FreeBSD4(), host.Linux22(), host.Windows2000(), host.FreeBSD4()}
		add(fmt.Sprintf("popular-lb-%d", i), simnet.Config{Backends: backends}, true)
	}
	for i := 0; i < 3 && len(hosts) < cfg.Hosts; i++ { // 3 more Linux 2.4
		add(fmt.Sprintf("picked-linux24-%d", i), simnet.Config{Server: host.Linux24()}, false)
	}

	// Random fill to cfg.Hosts, weighted toward the common server OSes of
	// the era with a Linux 2.4 slab (paper: 9 zero-IPID hosts of 50).
	weighted := []host.Profile{
		host.FreeBSD4(), host.FreeBSD4(), host.FreeBSD4(), host.Linux22(), host.Linux22(),
		host.Linux22(), host.Linux24(), host.Linux24(), host.Linux24(),
		host.Windows2000(), host.Windows2000(), host.Windows2000(), host.Windows2000(),
		host.Solaris8(), host.Solaris8(), host.OpenBSD3(), host.OpenBSD3(),
		host.SpecStack(), host.FreeBSD4(), host.Linux22(),
	}
	for i := 0; len(hosts) < cfg.Hosts; i++ {
		p := weighted[rng.IntN(len(weighted))]
		if rng.Float64() < 0.06 { // a few random sites sit behind balancers
			add(fmt.Sprintf("random-lb-%d", i), simnet.Config{
				Backends: []host.Profile{p, p, host.FreeBSD4(), host.Linux22()},
			}, true)
			continue
		}
		add(fmt.Sprintf("random-%s-%d", p.Name, i), simnet.Config{Server: p}, false)
	}
	return hosts[:cfg.Hosts]
}

// driftFn builds a sinusoidal swap-probability drift.
func driftFn(amp float64, period time.Duration, phase float64) func(sim.Time) float64 {
	if amp <= 0 {
		return nil
	}
	return func(t sim.Time) float64 {
		return amp * 0.5 * (1 - math.Cos(2*math.Pi*float64(t)/float64(period)+phase))
	}
}

// RunSurvey executes E2 (Fig 5 CDF), collecting the series E4 needs and the
// E6 exclusion counts along the way. Hosts are surveyed concurrently by the
// campaign scheduler; because every host's scenario is self-contained and
// seeded during synthesis, the report is identical at any worker count.
func RunSurvey(cfg SurveyConfig) *SurveyReport {
	rep := &SurveyReport{Config: cfg}
	hosts := synthesizePopulation(cfg)
	recs := make([]*HostRecord, len(hosts))
	_ = forEach(cfg.Workers, len(hosts), func(i int) error {
		recs[i] = surveyOneHost(hosts[i], cfg)
		return nil
	})
	rep.Hosts = recs
	sort.Slice(rep.Hosts, func(i, j int) bool { return rep.Hosts[i].Name < rep.Hosts[j].Name })
	return rep
}

// forEach runs fn(i) for every i in [0, n) on the campaign scheduler's
// worker pool (workers 0 = its default) and returns the lowest-index error.
// Each call owns slot i of whatever the caller collects into, so results
// need no locking and reports are identical at any worker count.
func forEach(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	sched := campaign.NewScheduler(campaign.SchedulerConfig{Workers: workers})
	return sched.RunSpans(0, n, nil,
		func(_, i, _ int) error {
			errs[i] = fn(i)
			return nil
		},
		func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if errs[i] != nil {
					return errs[i]
				}
			}
			return nil
		})
}

func surveyOneHost(sh surveyHost, cfg SurveyConfig) *HostRecord {
	n := simnet.New(sh.cfg)
	rec := &HostRecord{
		Name:      sh.name,
		Balanced:  sh.balanced,
		TrueFwd:   sh.fwd,
		TrueRev:   sh.rev,
		FwdSeries: map[string][]float64{},
		RevSeries: map[string][]float64{},
	}
	rec.IPIDPolicy = n.Hosts[0].IPIDPolicy()
	prober := core.NewProber(n.Probe(), n.ServerAddr(), sh.cfg.Seed^0x9e9)

	// IPID prevalidation once up front, as the paper's survey did. The dual
	// test still validates its own pair; this screen is kept because it is
	// reported: E6's exclusion count.
	rec.DCTExcluded = "unreachable"
	if rep, err := prober.ValidateIPID(core.IPIDCheckOptions{}); err == nil {
		rec.DCTExcluded = rep.Exclusion()
	}

	// The paper cycled round-robin across all hosts between tests, so two
	// techniques' measurements of one host were minutes apart; model that
	// spacing so the drifting process is genuinely sampled at different
	// times (this is why §IV-B's agreement is "paired" only under a
	// stationarity assumption).
	interTest := 90 * time.Second

	res := new(core.Result)
	for round := 0; round < cfg.Rounds; round++ {
		for _, test := range TestNames {
			n.Probe().Sleep(interTest)
			if test == "dual" && rec.DCTExcluded != "" {
				continue
			}
			if err := prober.SurveyTestInto(res, test, cfg.Samples); err != nil {
				continue // at paper size none is dropped here (TestSurvey)
			}
			rec.Measurements++
			if res.AnyReordering() {
				rec.WithReordering++
			}
			if f := res.Forward(); f.Valid() > 0 {
				rec.FwdSeries[test] = append(rec.FwdSeries[test], f.Rate())
			}
			if r := res.Reverse(); r.Valid() > 0 {
				rec.RevSeries[test] = append(rec.RevSeries[test], r.Rate())
			}
		}
	}
	return rec
}
