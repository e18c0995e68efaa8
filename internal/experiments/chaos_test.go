package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestChaosInducedDisagreement is the robustness acceptance criterion: at
// least one fault schedule must make the techniques measurably diverge.
// The RST-injecting middlebox is the canonical case — it tears down the
// measured connections the single/dual tests ride, collapsing their rates,
// while the SYN test's probes carry no data and sail through untouched —
// and the paired-difference test must reject the same-mean null for it.
func TestChaosInducedDisagreement(t *testing.T) {
	rep, err := RunChaos(ChaosConfig{
		Scenarios:  []string{"rst-inject", "route-flap"},
		Replicas:   6,
		Samples:    12,
		Workers:    4,
		Confidence: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the static control measured and the adversarial cells exist.
	if c, ok := rep.Cell("", "", "single"); !ok || c.Targets == 0 {
		t.Fatalf("static control cell missing or empty: %+v", c)
	}
	// rst-inject runs point-to-point; route-flap pairs with the diamond.
	if rst, ok := rep.Cell("rst-inject", "", "syn"); !ok || rst.Targets == 0 {
		t.Fatalf("rst-inject/syn cell missing or empty: %+v", rst)
	}
	if _, ok := rep.Cell("route-flap", "diamond", "single"); !ok {
		t.Fatalf("route-flap not paired with the diamond topology: %+v", rep.Groups)
	}

	d := rep.Disagreements()
	if len(d) == 0 {
		var buf bytes.Buffer
		rep.WriteText(&buf)
		t.Fatalf("no fault schedule split the techniques apart:\n%s", buf.String())
	}
	t.Logf("technique-splitting schedules: %v", d)

	// The report must render, and name the divergence.
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "splitting the techniques apart") {
		t.Fatal("report omits the disagreement line")
	}
}

// TestChaosStaticControlAgrees pins the baseline: with no fault schedule,
// the three techniques measure the same swap-heavy path and the null must
// survive every pairing — so a disagreement in the adversarial cells is
// attributable to the schedule, not the harness.
func TestChaosStaticControlAgrees(t *testing.T) {
	rep, err := RunChaos(ChaosConfig{
		Scenarios:  []string{"header-rewrite"}, // rewriting only: benign to rates
		Replicas:   5,
		Samples:    12,
		Workers:    4,
		Confidence: 0.999,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Groups[0].Pairs {
		if p.Hosts > 0 && p.NullOK == 0 {
			t.Fatalf("static control rejected the null for %s vs %s (%s)", p.TestA, p.TestB, p.Direction)
		}
	}
}
