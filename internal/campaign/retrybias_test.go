package campaign

import (
	"testing"

	"reorder/internal/stats"
)

// TestRetriedVerdictBias asks whether a retried verdict is a biased one. A
// retry re-runs the target's simulation with a fresh stream, so the summary
// folds first-try and second-try results into one sample. Over an
// adversarial list, where forged resets and FINs fail some first attempts,
// it splits the measured targets by Attempts and pins each group's size and
// how many of them saw reordering; the Wilson intervals it logs are the
// ones README's retry paragraph reports.
func TestRetriedVerdictBias(t *testing.T) {
	targets, err := Enumerate(EnumSpec{
		Profiles:  []string{"freebsd4", "linux24", "win2000", "lb-pool"},
		Scenarios: []string{"rst-inject", "fin-inject", "header-rewrite"},
		Seeds:     12,
		BaseSeed:  31,
	})
	if err != nil {
		t.Fatal(err)
	}
	type group struct{ measured, reordered int }
	var first, retried group
	_, records := runRecords(t, Config{Targets: targets, Samples: 8, Workers: 4, Retries: 1})
	for _, r := range records {
		if r.Err != "" || r.DCTExcluded != "" {
			continue
		}
		g := &first
		if r.Attempts > 1 {
			g = &retried
		}
		g.measured++
		if r.AnyReordering {
			g.reordered++
		}
	}
	for _, c := range []struct {
		name      string
		got, want group
	}{
		{"first try", first, group{measured: 3984, reordered: 1269}},
		{"retried", retried, group{measured: 17, reordered: 5}},
	} {
		g := c.got
		lo, hi := stats.BinomialCI(g.reordered, g.measured, 1.96)
		t.Logf("%-9s %4d measured, %4d with reordering (%.3f), 95%% Wilson [%.3f, %.3f]",
			c.name, g.measured, g.reordered, float64(g.reordered)/float64(max(1, g.measured)), lo, hi)
		if g != c.want {
			t.Errorf("%s: %d measured, %d with reordering; want %d and %d",
				c.name, g.measured, g.reordered, c.want.measured, c.want.reordered)
		}
	}
}
