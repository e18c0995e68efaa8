package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// nameRE is the alphabet the benchmark contract allows a name.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// benchDefinition is BENCHMARK.json as the tests need it.
type benchDefinition struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDefinition(t *testing.T) benchDefinition {
	t.Helper()
	var def benchDefinition
	if err := readJSON("../BENCHMARK.json", &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// runScaled runs every workload at 1% scale for two passes, with no timing
// assertions anywhere: only names, units, counts and checks.
func runScaled(t *testing.T, trace int, hook func(string)) (stdout string, res contractResult, err error) {
	t.Helper()
	var out bytes.Buffer
	err = execute(options{seed: defaultSeed, seconds: defaultSeconds, trace: trace, passes: 2, scale: 0.01,
		dir: t.TempDir(), afterPass: hook}, &out, io.Discard)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("last line is not the result object: %v\n%s", jerr, lines[len(lines)-1])
	}
	return out.String(), res, err
}

// TestEveryDefinedMetricIsPrinted holds the program to BENCHMARK.json: every
// workload prints every end-to-end metric untraced and every per-layer
// metric traced, once, with the declared unit, and every output check passes.
func TestEveryDefinedMetricIsPrinted(t *testing.T) {
	def := loadDefinition(t)
	if len(def.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program defines %d", len(def.Workloads), len(workloadDefs))
	}
	for i, w := range def.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
	}
	for trace, want := range [][]struct{ Name, Unit string }{def.EndToEnd, def.PerLayer} {
		stdout, res, err := runScaled(t, trace, nil)
		if err != nil {
			t.Fatalf("trace %d: %v\n%s", trace, err, stdout)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		for _, w := range def.Workloads {
			wr := res.Workloads[w.Name]
			if wr == nil {
				t.Fatalf("trace %d: no result for %s", trace, w.Name)
			}
			if len(wr.Metrics) != len(want) {
				t.Errorf("trace %d: %s reports %d metrics, BENCHMARK.json defines %d", trace, w.Name, len(wr.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := wr.Metrics[m.Name]
				if !ok {
					t.Errorf("trace %d: %s does not report %s", trace, w.Name, m.Name)
					continue
				}
				if got.Unit != m.Unit || got.Unit == "" {
					t.Errorf("trace %d: %s %s has unit %q, want %q", trace, w.Name, m.Name, got.Unit, m.Unit)
				}
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
				}
				printed := 0
				for _, line := range strings.Split(stdout, "\n") {
					if f := strings.Fields(line); len(f) > 3 && f[0] == w.Name && f[1] == m.Name && f[3] == m.Unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("trace %d: %s %s printed %d times, want once", trace, w.Name, m.Name, printed)
				}
			}
		}
	}
}

// TestTruncatedOutputFailsThePass cuts every timed pass's JSONL short before
// its check: all attempted targets must count as failed and the run must
// report an error (a non-zero exit).
func TestTruncatedOutputFailsThePass(t *testing.T) {
	truncate := func(jsonl string) {
		st, err := os.Stat(jsonl)
		if err == nil {
			err = os.Truncate(jsonl, st.Size()/2)
		}
		if err != nil {
			t.Error(err)
		}
	}
	_, res, err := runScaled(t, 0, truncate)
	if err == nil {
		t.Fatal("truncated output passed its checks")
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("correct=%v attempted=%d failed=%d, want every target failed", res.Correct, res.Attempted, res.Failed)
	}
}

// TestCompareFlagsRegression feeds -compare two results that differ by more
// than a bound in the worse direction.
func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		r := result{Seed: 1, Scale: 1, Order: []string{"survey-p2p"}, Workloads: map[string]*workloadResult{
			"survey-p2p": {Correct: true, Attempted: 1, Metrics: map[string]metric{
				"targets_per_s": {Value: rate, Unit: "targets/s", N: 10, Spread: 0.01}}}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, slower, same := write("a.json", 100_000), write("b.json", 60_000), write("c.json", 99_000)
	var out bytes.Buffer
	if err := compareResults(&out, "../BENCHMARK.json", a, slower); err == nil || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("40%% slower was not flagged: err=%v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareResults(&out, "../BENCHMARK.json", a, same); err != nil {
		t.Errorf("1%% slower was flagged: %v\n%s", err, out.String())
	}
}
