package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"reorder/internal/netem"
	"reorder/internal/sim"
	"reorder/internal/simnet"
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

// TestScenarioBuildIntoMatchesBuild holds a scenario built into reused
// storage to a freshly built one: every catalog entry, a hundred seeds, into
// a store that last held the longest timeline in the catalog and a
// middlebox, so a step or a config left over from it would show.
func TestScenarioBuildIntoMatchesBuild(t *testing.T) {
	longest, withBox := scenarios[0], scenarios[0]
	for _, sc := range scenarios {
		spec := sc.Build(sim.NewRand(1, 1))
		if len(spec.Steps) > len(longest.Build(sim.NewRand(1, 1)).Steps) {
			longest = sc
		}
		if spec.Middlebox != nil && len(spec.Steps) > 0 {
			withBox = sc
		}
	}
	var st scenarioStore
	for _, sc := range scenarios {
		for seed := uint64(0); seed < 100; seed++ {
			withBox.buildInto(&st, sim.NewRand(seed, 9))
			if n := len(longest.buildInto(&st, sim.NewRand(seed, 9)).Steps); n != 28 {
				t.Fatalf("longest timeline (%s) has %d steps, not the 28 the arena's scratch is sized by", longest.Name, n)
			}
			want := sc.Build(sim.NewRand(seed, 3))
			got := sc.buildInto(&st, sim.NewRand(seed, 3))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: built into reused storage\n%+v\nfresh\n%+v", sc.Name, seed, got, want)
			}
		}
	}
	if spec := (Scenario{}).buildInto(&st, sim.NewRand(1, 1)); spec != nil {
		t.Fatalf("the static scenario builds %+v, want nil", spec)
	}
}

// TestBuildReturnsCallerOwnedSpecs: what the allocating Build of an
// impairment, a scenario or a topology returns outlives the next Build —
// two consecutive specs share no storage.
func TestBuildReturnsCallerOwnedSpecs(t *testing.T) {
	for _, im := range impairments {
		f1, r1 := im.Build(sim.NewRand(1, 1))
		wantF, wantR := f1, r1
		var trunk netem.TrunkConfig
		var multi []time.Duration
		var arq netem.ARQConfig
		if f1.Trunk != nil {
			trunk = *f1.Trunk
		}
		if f1.MultiPath != nil {
			multi = append(multi, f1.MultiPath.Delays...)
		}
		if f1.ARQ != nil {
			arq = *f1.ARQ
		}
		f2, _ := im.Build(sim.NewRand(2, 2))
		if f1.Trunk != nil && (f1.Trunk == f2.Trunk || r1.Trunk == f1.Trunk || *f1.Trunk != trunk) {
			t.Fatalf("%s: consecutive trunk configs alias", im.Name)
		}
		if f1.MultiPath != nil && (f1.MultiPath == f2.MultiPath || &f1.MultiPath.Delays[0] == &f2.MultiPath.Delays[0] ||
			!reflect.DeepEqual(f1.MultiPath.Delays, multi)) {
			t.Fatalf("%s: consecutive multipath configs alias", im.Name)
		}
		if f1.ARQ != nil && (f1.ARQ == f2.ARQ || *f1.ARQ != arq) {
			t.Fatalf("%s: consecutive ARQ configs alias", im.Name)
		}
		if !reflect.DeepEqual(f1, wantF) || !reflect.DeepEqual(r1, wantR) {
			t.Fatalf("%s: the second Build rewrote the first path specs", im.Name)
		}
	}
	for _, sc := range scenarios {
		s1 := sc.Build(sim.NewRand(1, 1))
		want := *s1
		want.Steps = append([]simnet.TimelineStep(nil), s1.Steps...)
		if s1.Middlebox != nil {
			mb := *s1.Middlebox
			want.Middlebox = &mb
		}
		s2 := sc.Build(sim.NewRand(2, 2))
		if s1 == s2 || (s1.Middlebox != nil && s1.Middlebox == s2.Middlebox) ||
			(len(s1.Steps) > 0 && &s1.Steps[0] == &s2.Steps[0]) {
			t.Fatalf("%s: consecutive scenario specs alias", sc.Name)
		}
		if !reflect.DeepEqual(*s1, want) {
			t.Fatalf("%s: the second Build rewrote the first spec", sc.Name)
		}
	}
	for _, tp := range topologies {
		t1, t2 := tp.Build(sim.NewRand(1, 1)), tp.Build(sim.NewRand(2, 2))
		if t1 == nil {
			continue // point-to-point
		}
		if t1 == t2 || (len(t1.Flows) > 0 && &t1.Flows[0] == &t2.Flows[0]) {
			t.Fatalf("%s: consecutive topology specs alias", tp.Name)
		}
	}
}
