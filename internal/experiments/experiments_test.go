package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"reorder/internal/core"
)

func TestValidationGrid(t *testing.T) {
	rep := RunValidation(DefaultValidation())
	// 6 rates -> 36 combos x 3 tests + 6 transfer runs = 114 runs.
	if len(rep.Runs) != 114 {
		t.Fatalf("runs = %d, want 114", len(rep.Runs))
	}
	for _, r := range rep.Runs {
		if r.Err != "" {
			t.Fatalf("run %s fwd=%v rev=%v failed: %s", r.Test, r.FwdRate, r.RevRate, r.Err)
		}
		if r.Samples == 0 {
			t.Fatalf("run %s produced no comparable samples", r.Test)
		}
	}
	// The paper's headline: nearly all samples agree with ground truth.
	if frac := rep.CorrectFraction(); frac < 0.99 {
		t.Fatalf("CorrectFraction = %.4f, want >= 0.99", frac)
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	for _, want := range []string{"E1", "tool-fwd", "correct"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report text missing %q", want)
		}
	}
}

func TestValidationToolTracksConfiguredRate(t *testing.T) {
	cfg := ValidationConfig{Rates: []float64{0.40}, Samples: 120, Seed: 9}
	rep := RunValidation(cfg)
	for _, r := range rep.Runs {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Test, r.Err)
		}
		if r.Test == "transfer" {
			continue
		}
		rate := float64(r.ToolFwd) / float64(r.Samples)
		// The swapper approximates the configured probability; wide
		// tolerance covers binomial noise at n=120.
		if rate < 0.25 || rate > 0.55 {
			t.Errorf("%s at 40%%: measured %.3f", r.Test, rate)
		}
	}
}

func TestSurvey(t *testing.T) {
	rep := RunSurvey(DefaultSurvey())
	if len(rep.Hosts) != 50 {
		t.Fatalf("hosts = %d", len(rep.Hosts))
	}
	for _, h := range rep.Hosts {
		if h.Measurements == 0 {
			t.Fatalf("host %s has no measurements", h.Name)
		}
	}
	// Every round of every test on every host is one measurement, bar the
	// dual test on a host the up-front screen excluded: none may vanish
	// through the per-measurement error path.
	cfg, measured, screened := DefaultSurvey(), 0, 0
	for _, h := range rep.Hosts {
		measured += h.Measurements
		if h.DCTExcluded != "" {
			screened++
		}
	}
	if want := cfg.Rounds * (len(TestNames)*cfg.Hosts - screened); measured != want || measured != 7320 {
		t.Errorf("%d measurements over %d screened hosts, want %d = 7320", measured, screened, want)
	}
	// Population synthesis guarantees both exclusion classes appear.
	ex := rep.DCTExclusions()
	if ex["zero-ipid"] == 0 {
		t.Error("no zero-IPID hosts in population")
	}
	// Shape checks (Fig 5 neighborhood): some but not all paths reorder.
	frac := rep.FractionWithReordering()
	if frac <= 0 || frac >= 1 {
		t.Fatalf("FractionWithReordering = %v", frac)
	}
	cdf := rep.CDF()
	if cdf.N() != 50 {
		t.Fatalf("CDF over %d paths", cdf.N())
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "Fig 5") {
		t.Error("report text missing CDF section")
	}
}

func TestAgreementFromSurvey(t *testing.T) {
	cfg := DefaultSurvey()
	cfg.Rounds = 8
	survey := RunSurvey(cfg)
	rep := RunAgreement(survey)
	if len(rep.Pairs) == 0 {
		t.Fatal("no pairs compared")
	}
	// Forward transfer pairs must be absent; reverse ones present.
	if _, ok := rep.Pair("single", "transfer", "forward"); ok {
		t.Error("transfer compared on the forward path")
	}
	p, ok := rep.Pair("single", "syn", "forward")
	if !ok || p.Hosts == 0 {
		t.Fatalf("single/syn forward pair missing or empty: %+v", p)
	}
	// The two sound techniques measure the same process: most hosts
	// must support the null hypothesis (paper: 78% forward).
	if p.NullFraction() < 0.5 {
		t.Errorf("single/syn forward agreement %.2f, want >= 0.5", p.NullFraction())
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "E4") {
		t.Error("report text missing header")
	}
}

func TestTimeSeries(t *testing.T) {
	rep, err := RunTimeSeries(DefaultTimeSeries())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != DefaultTimeSeries().Rounds {
		t.Fatalf("points = %d", len(rep.Points))
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "Fig 6") {
		t.Error("report text missing header")
	}
}

func TestTimeSeriesTracksDrift(t *testing.T) {
	cfg := TimeSeriesConfig{Rounds: 24, Samples: 30, Period: 4 * time.Minute, PeakRate: 0.25, Seed: 67}
	rep, err := RunTimeSeries(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both techniques must see the drifting process: correlate the
	// measured series against the configured truth.
	var truth, sct, syn []float64
	for _, p := range rep.Points {
		truth = append(truth, p.TrueRate)
		sct = append(sct, p.SCT)
		syn = append(syn, p.SYN)
	}
	if c := pearson(truth, sct); c < 0.5 {
		t.Errorf("SCT/truth correlation %.3f, want >= 0.5", c)
	}
	if c := pearson(truth, syn); c < 0.5 {
		t.Errorf("SYN/truth correlation %.3f, want >= 0.5", c)
	}
	// And with each other (the Fig 6 visual claim).
	if c := rep.Correlation(); c < 0.4 {
		t.Errorf("SCT/SYN correlation %.3f, want >= 0.4", c)
	}
}

func TestGapSweepShape(t *testing.T) {
	rep, err := RunGapSweep(DefaultGapSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) < 8 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	// The Fig 7 shape: >5% back to back, decayed by 50µs, ~0 at 250µs+.
	r0 := rep.ForwardAt(0)
	r50 := rep.ForwardAt(50 * time.Microsecond)
	r250 := rep.ForwardAt(250 * time.Microsecond)
	if r0 < 0.05 {
		t.Errorf("rate at 0 = %.4f, want >= 0.05", r0)
	}
	if r50 >= r0 {
		t.Errorf("no decay: r0=%.4f r50=%.4f", r0, r50)
	}
	if r250 > 0.02 {
		t.Errorf("rate at 250µs = %.4f, want ≈0", r250)
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "Fig 7") {
		t.Error("report text missing header")
	}
}

// TestGapScheduleMatchesPaper pins that timedist's default sweeps the
// paper's schedule, core.PaperGaps, which TestGapSweepDefaultSchedule pins
// point by point.
func TestGapScheduleMatchesPaper(t *testing.T) {
	if got, want := DefaultGapSweep().Gaps, core.PaperGaps(); !slices.Equal(got, want) {
		t.Fatalf("DefaultGapSweep().Gaps = %v, want core.PaperGaps() = %v", got, want)
	}
}

func TestBaselines(t *testing.T) {
	rep, err := RunBaselines(DefaultBaselines())
	if err != nil {
		t.Fatal(err)
	}
	// On a 35%-swap path nearly every 5-packet burst reorders (Bennett's
	// >90% finding).
	if rep.SmallBurstReordered < 0.7 {
		t.Errorf("small bursts reordered = %.2f, want >= 0.7", rep.SmallBurstReordered)
	}
	if rep.LargeBurstMeanSACK < 1 {
		t.Errorf("large burst SACK metric = %.1f, want >= 1", rep.LargeBurstMeanSACK)
	}
	if rep.PaxsonSessions == 0 || rep.PaxsonSessionsReordered == 0 {
		t.Errorf("Paxson analysis: %d/%d", rep.PaxsonSessionsReordered, rep.PaxsonSessions)
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "E7") {
		t.Error("report text missing header")
	}
}

func TestValidationDeterministic(t *testing.T) {
	a := RunValidation(DefaultValidation())
	b := RunValidation(DefaultValidation())
	if len(a.Runs) != len(b.Runs) {
		t.Fatal("run counts differ")
	}
	for i := range a.Runs {
		if a.Runs[i] != b.Runs[i] {
			t.Fatalf("run %d differs: %+v vs %+v", i, a.Runs[i], b.Runs[i])
		}
	}
}
