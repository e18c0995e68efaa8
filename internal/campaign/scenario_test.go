package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioZeroScheduleGoldenSeam pins the tentpole's compatibility
// seam: static targets carrying a schedule of zero-magnitude mutations —
// live loop timers firing mid-probe, every one reasserting the value it
// finds — must still produce the pre-scenario golden bytes across worker
// counts, batching and a mid-batch resume. Timer events alone never move a
// byte of output.
func TestScenarioZeroScheduleGoldenSeam(t *testing.T) {
	debugZeroSchedule = true
	defer func() { debugZeroSchedule = false }()
	for _, m := range [][2]int{{1, 8}, {4, 8}, {16, 64}} {
		for _, split := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/batch=%d/split=%v", m[0], m[1], split)
			jsonl, csv, _, _ := runGoldenCampaign(t, m[0], m[1], 0, split)
			if got := sha256Hex(jsonl); got != goldenJSONLSHA {
				t.Errorf("%s: zero-magnitude schedule changed JSONL bytes: %s", name, got)
			}
			if got := sha256Hex(csv); got != goldenCSVSHA {
				t.Errorf("%s: zero-magnitude schedule changed CSV bytes: %s", name, got)
			}
		}
	}
}

func TestEnumerateScenarios(t *testing.T) {
	spec := EnumSpec{
		Profiles:    []string{"freebsd4"},
		Impairments: []string{"clean"},
		Tests:       []string{"single"},
		Seeds:       2,
		Scenarios:   []string{"", "rst-inject"},
	}
	targets, err := Enumerate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 4 {
		t.Fatalf("enumerated %d targets, want 4", len(targets))
	}
	// Scenario is the outermost dimension; "" targets come first and are
	// identical to a scenario-free enumeration.
	plain, err := Enumerate(EnumSpec{
		Profiles: spec.Profiles, Impairments: spec.Impairments,
		Tests: spec.Tests, Seeds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if targets[i] != plain[i] {
			t.Fatalf("target %d: %+v != scenario-free %+v", i, targets[i], plain[i])
		}
	}
	for _, tg := range targets[2:] {
		if tg.Scenario != "rst-inject" {
			t.Fatalf("scenario = %q", tg.Scenario)
		}
		if !strings.HasSuffix(tg.Name, "#rst-inject") {
			t.Fatalf("name %q lacks scenario suffix", tg.Name)
		}
	}
	// The scenario is mixed into the seed, so the same replica draws a
	// different build under a different fault schedule.
	if targets[2].Seed == targets[0].Seed {
		t.Fatal("scenario not mixed into derived seed")
	}
	if _, err := Enumerate(EnumSpec{Scenarios: []string{"no-such"}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestEnumerateScenarioWithTopologySeeds(t *testing.T) {
	// Topology and scenario must both feed the seed, independently: the
	// same scenario over different graphs (and vice versa) draws different
	// streams, and the '#' scenario marker cannot collide with a topology
	// of the same name.
	enum := func(topos, scns []string) []Target {
		t.Helper()
		ts, err := Enumerate(EnumSpec{
			Profiles: []string{"freebsd4"}, Impairments: []string{"clean"},
			Tests: []string{"single"}, Seeds: 1, Topologies: topos, Scenarios: scns,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	a := enum([]string{"diamond"}, []string{"route-flap"})[0]
	b := enum([]string{"diamond"}, []string{"rate-ramp"})[0]
	c := enum([]string{"bottleneck"}, []string{"route-flap"})[0]
	if a.Seed == b.Seed || a.Seed == c.Seed {
		t.Fatalf("seed collisions across scenario/topology mix: %d %d %d", a.Seed, b.Seed, c.Seed)
	}
	if !strings.HasPrefix(a.Name, "freebsd4/clean/single/s") ||
		!strings.HasSuffix(a.Name, "@diamond#route-flap") {
		t.Fatalf("name = %q", a.Name)
	}
}

func TestTargetsFileScenarioRoundTrip(t *testing.T) {
	targets, err := Enumerate(EnumSpec{
		Profiles:    []string{"freebsd4", "linux22"},
		Impairments: []string{"clean"},
		Tests:       []string{"single", "syn"},
		Topologies:  []string{"", "diamond"},
		Scenarios:   []string{"", "route-flap", "rst-inject"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTargets(&buf, targets); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTargets(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(targets) {
		t.Fatalf("loaded %d targets, want %d", len(loaded), len(targets))
	}
	for i := range targets {
		if loaded[i] != targets[i] {
			t.Fatalf("target %d: %+v != %+v", i, loaded[i], targets[i])
		}
	}
	// A scenario without a topology writes the "-" placeholder.
	if !bytes.Contains(buf.Bytes(), []byte(" - rst-inject\n")) {
		t.Fatalf("placeholder topology missing from targets file:\n%s", buf.String())
	}
	if _, err := LoadTargets(strings.NewReader("freebsd4 clean single 1 - no-such\n")); err == nil {
		t.Fatal("unknown scenario in targets file accepted")
	}
	if _, err := LoadTargets(strings.NewReader("freebsd4 clean single 1 - rst-inject extra\n")); err == nil {
		t.Fatal("seven-field line accepted")
	}
}

// FuzzLoadTargets pins the parser against arbitrary input: it must never
// panic, and anything it accepts must round-trip through WriteTargets.
func FuzzLoadTargets(f *testing.F) {
	f.Add("freebsd4 clean single 1\n")
	f.Add("freebsd4 clean single 1 diamond\n")
	f.Add("freebsd4 clean single 1 - rst-inject\n# comment\n\n")
	f.Add("freebsd4 clean single 1 diamond route-flap\n")
	f.Add("bogus\nfreebsd4 clean single notanumber\n")
	f.Fuzz(func(t *testing.T, text string) {
		targets, err := LoadTargets(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTargets(&buf, targets); err != nil {
			t.Fatal(err)
		}
		again, err := LoadTargets(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("accepted input failed to round-trip: %v\n%s", err, buf.String())
		}
		if len(again) != len(targets) {
			t.Fatalf("round-trip count %d != %d", len(again), len(targets))
		}
		for i := range targets {
			if again[i] != targets[i] {
				t.Fatalf("round-trip target %d: %+v != %+v", i, again[i], targets[i])
			}
		}
	})
}

func TestFingerprintScenarioDistinct(t *testing.T) {
	base := []Target{{Profile: "freebsd4", Impairment: "clean", Test: "single", Seed: 7}}
	withTopo := []Target{base[0]}
	withTopo[0].Topology = "diamond"
	withScn := []Target{base[0]}
	withScn[0].Scenario = "diamond" // same string, different dimension
	fp := func(ts []Target) uint64 { return Fingerprint(ts, 4) }
	if fp(base) == fp(withTopo) || fp(base) == fp(withScn) || fp(withTopo) == fp(withScn) {
		t.Fatal("fingerprint fails to separate topology and scenario dimensions")
	}
	both := []Target{withTopo[0]}
	both[0].Scenario = "route-flap"
	if fp(both) == fp(withTopo) {
		t.Fatal("scenario segment not folded into fingerprint")
	}
}

// scenarioTargets is the mixed list scenarioCampaign probes: both
// dimensions, each with its empty default beside named entries.
func scenarioTargets(t *testing.T) []Target {
	t.Helper()
	targets, err := Enumerate(EnumSpec{
		Profiles:    []string{"freebsd4"},
		Impairments: []string{"swap-light"},
		Tests:       []string{"single", "syn"},
		Seeds:       2,
		Topologies:  []string{"", "diamond"},
		Scenarios:   []string{"", "rate-ramp", "rst-inject", "route-flap"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// scenarioCampaign runs a mixed static+scenario campaign and returns its
// JSONL and CSV bytes.
func scenarioCampaign(t *testing.T, workers, batch int, split bool) ([]byte, []byte) {
	t.Helper()
	targets := scenarioTargets(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	csv := filepath.Join(dir, "out.csv")
	ckpt := filepath.Join(dir, "ckpt.json")
	phases := [][2]int{{0, 0}}
	if split {
		phases = [][2]int{{17, 0}, {0, 1}}
	}
	for _, ph := range phases {
		_, err := Run(Config{
			Targets: targets, Samples: 4, Workers: workers, Batch: batch,
			OutputPath: out, CSVPath: csv, CheckpointPath: ckpt,
			StopAfter: ph[0], Resume: ph[1] == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	jsonl, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	csvData, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	return jsonl, csvData
}

// TestScenarioCampaignSchedulingInvariance extends the byte-identity
// contract to scenario targets: worker count, batch size and a mid-run
// resume must not change a byte of JSONL or CSV — which also pins that
// pooled middleboxes and the pooled schedule reset between targets are
// observably identical to freshly built ones.
func TestScenarioCampaignSchedulingInvariance(t *testing.T) {
	refJSONL, refCSV := scenarioCampaign(t, 1, 1, false)
	if !bytes.Contains(refCSV, []byte("scenario")) {
		t.Fatal("scenario column missing from mixed-campaign CSV")
	}
	if !bytes.Contains(refJSONL, []byte(`"scenario":"rst-inject"`)) {
		t.Fatal("scenario field missing from JSONL records")
	}
	// Static records must not grow the field.
	first := refJSONL[:bytes.IndexByte(refJSONL, '\n')]
	if bytes.Contains(first, []byte(`"scenario"`)) {
		t.Fatalf("static record gained a scenario field: %s", first)
	}
	for _, m := range [][2]int{{4, 8}, {16, 3}} {
		jsonl, csv := scenarioCampaign(t, m[0], m[1], false)
		if !bytes.Equal(jsonl, refJSONL) || !bytes.Equal(csv, refCSV) {
			t.Fatalf("workers=%d batch=%d changed campaign bytes", m[0], m[1])
		}
	}
	jsonl, csv := scenarioCampaign(t, 4, 8, true)
	if !bytes.Equal(jsonl, refJSONL) || !bytes.Equal(csv, refCSV) {
		t.Fatal("resumed scenario campaign differs from uninterrupted run")
	}
}
