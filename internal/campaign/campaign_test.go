package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"reorder/internal/sim"
	"reorder/internal/stats"
)

// smallSpec is a cheap cross product used throughout the tests.
func smallSpec() EnumSpec {
	return EnumSpec{
		Profiles:    []string{"freebsd4", "linux24", LBPool},
		Impairments: []string{"clean", "swap-heavy"},
		Tests:       []string{"single", "dual", "syn", "transfer"},
		Seeds:       1,
		BaseSeed:    42,
	}
}

func TestEnumerate(t *testing.T) {
	targets, err := Enumerate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 2 * 4; len(targets) != want {
		t.Fatalf("enumerated %d targets, want %d", len(targets), want)
	}
	for i, tg := range targets {
		if tg.Index != i {
			t.Fatalf("target %d has index %d", i, tg.Index)
		}
		if tg.Name == "" {
			t.Fatalf("target %d has no name", i)
		}
	}

	if _, err := Enumerate(EnumSpec{Profiles: []string{"bogus"}}); err == nil {
		t.Fatal("unknown profile not rejected")
	}
	if _, err := Enumerate(EnumSpec{Impairments: []string{"bogus"}}); err == nil {
		t.Fatal("unknown impairment not rejected")
	}
	if _, err := Enumerate(EnumSpec{Tests: []string{"bogus"}}); err == nil {
		t.Fatal("unknown test not rejected")
	}

	full, err := Enumerate(EnumSpec{Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := len(Profiles()) * len(ImpairmentNames()) * len(Tests) * 2
	if len(full) != want {
		t.Fatalf("default enumeration %d targets, want %d", len(full), want)
	}

	// Seed pairing: the four tests at one profile×impairment×replica
	// share a seed (so their results stay pairable on one path
	// instance), while distinct profiles or impairments draw distinct
	// path instances.
	seedOf := func(profile, impairment, test string) uint64 {
		for _, tg := range full {
			if tg.Profile == profile && tg.Impairment == impairment && tg.Test == test {
				return tg.Seed
			}
		}
		t.Fatalf("target %s/%s/%s not found", profile, impairment, test)
		return 0
	}
	if seedOf("freebsd4", "trunk", "single") != seedOf("freebsd4", "trunk", "syn") {
		t.Fatal("tests at one profile×impairment do not share a path seed")
	}
	if seedOf("freebsd4", "trunk", "single") == seedOf("linux22", "trunk", "single") {
		t.Fatal("different profiles share a path seed")
	}
	if seedOf("freebsd4", "trunk", "single") == seedOf("freebsd4", "arq", "single") {
		t.Fatal("different impairments share a path seed")
	}
}

// enumerateOracle is Enumerate in its plainest form: the list grows by
// append, names and seed strings go through fmt, and every target hashes
// its seed afresh. The spec's names must be valid.
func enumerateOracle(spec EnumSpec) []Target {
	if len(spec.Profiles) == 0 {
		spec.Profiles = Profiles()
	}
	if len(spec.Impairments) == 0 {
		spec.Impairments = ImpairmentNames()
	}
	if len(spec.Tests) == 0 {
		spec.Tests = Tests
	}
	spec.Seeds = max(spec.Seeds, 1)
	if len(spec.Topologies) == 0 {
		spec.Topologies = []string{""}
	}
	if len(spec.Scenarios) == 0 {
		spec.Scenarios = []string{""}
	}
	var targets []Target
	for _, scn := range spec.Scenarios {
		for _, topo := range spec.Topologies {
			for _, p := range spec.Profiles {
				for _, im := range spec.Impairments {
					for _, te := range spec.Tests {
						for s := 0; s < spec.Seeds; s++ {
							t := Target{
								Index: len(targets), Profile: p, Impairment: im, Test: te,
								Seed:     deriveSeedOracle(spec.BaseSeed, p, im, topo, scn, s),
								Topology: topo, Scenario: scn,
							}
							t.Name = fmt.Sprintf("%s/%s/%s/s%d", t.Profile, t.Impairment, t.Test, t.Seed)
							if t.Topology != "" {
								t.Name += "@" + t.Topology
							}
							if t.Scenario != "" {
								t.Name += "#" + t.Scenario
							}
							targets = append(targets, t)
						}
					}
				}
			}
		}
	}
	return targets
}

// deriveSeedOracle hashes the frozen seed string written with fmt.
func deriveSeedOracle(base uint64, profile, impairment, topology, scenario string, replica int) uint64 {
	dims := ""
	if scenario != "" {
		dims = topology + "|#" + scenario + "|"
	} else if topology != "" {
		dims = topology + "|"
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s%d", base, profile, impairment, dims, replica)
	return h.Sum64()
}

// TestEnumerateMatchesOracle holds Enumerate to enumerateOracle: every
// field of every target, hence the campaign fingerprint, over the default
// spec, topology and scenario specs, and both extreme base seeds.
func TestEnumerateMatchesOracle(t *testing.T) {
	topo := smallSpec()
	topo.Topologies = []string{"", "diamond", "bottleneck"}
	scn := smallSpec()
	scn.Seeds = 3
	scn.Scenarios = []string{"", "rst-inject", "route-flap"}
	both := scn
	both.Topologies = []string{"", "diamond"}
	for _, base := range []uint64{0, 42, math.MaxUint64} {
		for _, spec := range []EnumSpec{{Seeds: 2}, topo, scn, both, {Scenarios: []string{"route-flap"}, Topologies: []string{"diamond"}}} {
			spec.BaseSeed = base
			got, err := Enumerate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, enumerateOracle(spec)) {
				t.Fatalf("%+v: Enumerate differs from the oracle", spec)
			}
		}
	}
}

func TestLoadTargetsRoundTrip(t *testing.T) {
	targets, err := Enumerate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTargets(&buf, targets); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTargets(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(targets, loaded) {
		t.Fatal("targets did not round-trip through the file format")
	}

	if _, err := LoadTargets(strings.NewReader("freebsd4 clean single\n")); err == nil {
		t.Fatal("short line not rejected")
	}
	if _, err := LoadTargets(strings.NewReader("bogus clean single 1\n")); err == nil {
		t.Fatal("unknown profile not rejected")
	}
	got, err := LoadTargets(strings.NewReader("# comment\n\nfreebsd4 clean single 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seed != 7 {
		t.Fatalf("comment/blank handling broken: %+v", got)
	}
}

// TestProbeHermetic checks that a probe depends only on the target spec:
// same spec, same result, no matter how often or where it runs.
func TestProbeHermetic(t *testing.T) {
	tg := Target{Index: 3, Name: "x", Profile: "freebsd4", Impairment: "swap-heavy", Test: "single", Seed: 99}
	a := ProbeTarget(tg, 6, 0)
	b := ProbeTarget(tg, 6, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("probe not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Err != "" {
		t.Fatalf("probe errored: %s", a.Err)
	}
	if a.FwdValid == 0 {
		t.Fatal("probe produced no valid forward samples")
	}
}

// TestProbeDCTExclusion checks that zero-IPID hosts are excluded, not
// errored.
func TestProbeDCTExclusion(t *testing.T) {
	tg := Target{Profile: "linux24", Impairment: "clean", Test: "dual", Seed: 5}
	res := ProbeTarget(tg, 6, 0)
	if res.Err != "" {
		t.Fatalf("unexpected error: %s", res.Err)
	}
	if res.DCTExcluded != "zero-ipid" {
		t.Fatalf("DCTExcluded = %q, want zero-ipid", res.DCTExcluded)
	}
}

// runCampaign is a test helper running a campaign over the small spec.
func runCampaign(t *testing.T, dir string, workers int, mutate func(*Config)) (*Summary, []byte) {
	t.Helper()
	targets, err := Enumerate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.jsonl")
	cfg := Config{
		Targets:    targets,
		Samples:    4,
		Workers:    workers,
		OutputPath: out,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return sum, data
}

// TestCampaignDeterministicOutput is the campaign determinism contract:
// the same seed and target set produce byte-identical JSONL and an equal
// summary across runs — including runs with different worker counts.
func TestCampaignDeterministicOutput(t *testing.T) {
	sumA, bytesA := runCampaign(t, t.TempDir(), 16, nil)
	sumB, bytesB := runCampaign(t, t.TempDir(), 16, nil)
	if !bytes.Equal(bytesA, bytesB) {
		t.Fatal("two identical runs produced different JSONL bytes")
	}
	if !reflect.DeepEqual(sumA, sumB) {
		t.Fatalf("two identical runs produced different summaries:\n%+v\n%+v", sumA, sumB)
	}

	sumC, bytesC := runCampaign(t, t.TempDir(), 1, nil)
	if !bytes.Equal(bytesA, bytesC) {
		t.Fatal("worker count changed the JSONL bytes")
	}
	if !reflect.DeepEqual(sumA, sumC) {
		t.Fatal("worker count changed the summary")
	}
	if sumA.Targets != 24 || sumA.Measured == 0 {
		t.Fatalf("suspicious summary: %+v", sumA)
	}
	// linux24 and lb-pool dual targets must be excluded, not errored.
	if sumA.Excluded == 0 {
		t.Fatalf("expected IPID exclusions, got none: %+v", sumA)
	}
}

// TestCampaignResume is the checkpoint contract: stop after K results,
// resume, and the final JSONL and summary equal an uninterrupted run's.
func TestCampaignResume(t *testing.T) {
	full, fullBytes := runCampaign(t, t.TempDir(), 8, nil)

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	// Phase 1: run the first 7 targets, checkpointing every result.
	runCampaign(t, dir, 8, func(c *Config) {
		c.CheckpointPath = ckpt
		c.CheckpointEvery = 1
		c.StopAfter = 7
	})
	ck, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Done != 7 {
		t.Fatalf("checkpoint done = %d, want 7", ck.Done)
	}
	// Phase 2: resume to completion.
	resumed, resumedBytes := runCampaign(t, dir, 8, func(c *Config) {
		c.CheckpointPath = ckpt
		c.Resume = true
	})
	if !bytes.Equal(fullBytes, resumedBytes) {
		t.Fatal("resumed JSONL differs from uninterrupted run")
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resumed summary differs from uninterrupted run:\n%+v\n%+v", full, resumed)
	}
}

// TestCampaignResumeStopAfterWindows splits one campaign into three
// StopAfter windows chained by checkpoint/resume: the final JSONL, CSV and
// (histogram-based) summary must be byte- and value-identical to an
// uninterrupted run's.
func TestCampaignResumeStopAfterWindows(t *testing.T) {
	fullDir := t.TempDir()
	full, fullJSONL := runCampaign(t, fullDir, 8, func(c *Config) {
		c.CSVPath = filepath.Join(fullDir, "out.csv")
	})
	fullCSV, err := os.ReadFile(filepath.Join(fullDir, "out.csv"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	csv := filepath.Join(dir, "out.csv")
	var sum *Summary
	var jsonl []byte
	// Three windows over the 24 targets: 9 + 9 + the remaining 6.
	for i, window := range []int{9, 9, 0} {
		sum, jsonl = runCampaign(t, dir, 8, func(c *Config) {
			c.CSVPath = csv
			c.CheckpointPath = ckpt
			c.Resume = i > 0
			c.StopAfter = window
		})
	}
	if !bytes.Equal(fullJSONL, jsonl) {
		t.Fatal("three-window JSONL differs from uninterrupted run")
	}
	gotCSV, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullCSV, gotCSV) {
		t.Fatal("three-window CSV differs from uninterrupted run")
	}
	if !reflect.DeepEqual(full, sum) {
		t.Fatalf("three-window summary differs from uninterrupted run:\n%+v\n%+v", full, sum)
	}
}

// recordLines renders one record per target as the JSONL sink would: the
// target's identity fields plus Index and Attempts, nothing measured.
func recordLines(targets []Target) []byte {
	results := make([]TargetResult, len(targets))
	for i := range targets {
		tg := &targets[i]
		results[i] = TargetResult{
			Index: tg.Index, Name: tg.Name, Profile: tg.Profile, Impairment: tg.Impairment,
			Test: tg.Test, Seed: tg.Seed, Attempts: 1, Topology: tg.Topology, Scenario: tg.Scenario,
		}
	}
	return renderRecords(results)
}

// TestReplayOutputLongRecord guards the resume path against records longer
// than any scanner buffer: a multi-megabyte JSONL line must replay, and a
// corrupt record must be reported by index.
func TestReplayOutputLongRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	targets := []Target{
		{Index: 0, Name: strings.Repeat("x", 2<<20), Test: "single"},
		{Index: 1, Name: "small", Test: "single"},
	}
	if err := os.WriteFile(path, recordLines(targets), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := replayOutput(path, targets, 2)
	if err != nil {
		t.Fatalf("replay of >1MiB record failed: %v", err)
	}
	if len(got) != 2 || len(got[0].Name) != 2<<20 || got[1].Name != "small" {
		t.Fatal("long-record replay corrupted the results")
	}

	// A corrupt record reports its index.
	content := append(recordLines(targets[:1]), "not json\n"...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = replayOutput(path, targets, 2)
	if err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("corrupt record not reported by index: %v", err)
	}
}

// TestReplayOutputUnterminatedTail checks that a partial final line — a
// crash mid-write, never acknowledged by a checkpoint — is truncated and
// re-probed rather than replayed or fatal.
func TestReplayOutputUnterminatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	targets := []Target{{Index: 0, Name: "a", Test: "single"}, {Index: 1, Name: "b", Test: "single"}}
	lines := recordLines(targets)
	first := lines[:bytes.IndexByte(lines, '\n')+1]
	content := lines[:len(first)+16] // the second record cut mid-key
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayOutput(path, targets, 2); err == nil {
		t.Fatal("checkpoint claiming more records than terminated lines not rejected")
	}
	// Restore (replayOutput may have truncated) and replay just the intact
	// prefix: the partial tail must be dropped from the file.
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := replayOutput(path, targets, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Index != 0 {
		t.Fatalf("prefix replay wrong: %+v", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, first) {
		t.Fatalf("partial tail not truncated: %q", data)
	}
}

// TestResumeRefusesOversizedCheckpoint: a checkpoint with the right
// fingerprint and more results than the campaign has targets is refused
// by NewEmitter in one line naming both numbers — it used to reach a
// make() sized by Done and die with "makeslice: cap out of range".
func TestResumeRefusesOversizedCheckpoint(t *testing.T) {
	targets, err := Enumerate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, done := range []int{len(targets) + 1, math.MaxInt} {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "ckpt.json")
		if err := (Checkpoint{Fingerprint: Fingerprint(targets, 4), Done: done}).Save(ckpt); err != nil {
			t.Fatal(err)
		}
		_, err = NewEmitter(Config{
			Targets: targets, Samples: 4,
			OutputPath: filepath.Join(dir, "out.jsonl"), CheckpointPath: ckpt, Resume: true,
		})
		if err == nil || strings.Contains(err.Error(), "\n") ||
			!strings.Contains(err.Error(), strconv.Itoa(done)) ||
			!strings.Contains(err.Error(), strconv.Itoa(len(targets))+" targets") {
			t.Fatalf("done=%d: oversized checkpoint not refused with both numbers: %v", done, err)
		}
	}
}

// TestEmitterRefusals drives each of the emitter's refusals — no targets,
// Resume without a checkpoint, an output path that cannot be opened, a
// span off the emit frontier — and checks the error and that no output
// reached disk.
func TestEmitterRefusals(t *testing.T) {
	targets, err := Enumerate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  func(dir string) Config
		emit bool // NewEmitter succeeds; EmitSpan refuses
		want string
	}{
		{"no targets", func(dir string) Config {
			return Config{OutputPath: filepath.Join(dir, "out.jsonl")}
		}, false, "no targets"},
		{"resume without checkpoint", func(dir string) Config {
			return Config{Targets: targets, Resume: true,
				OutputPath: filepath.Join(dir, "out.jsonl"), CSVPath: filepath.Join(dir, "out.csv")}
		}, false, "Resume requires CheckpointPath"},
		{"unopenable output", func(dir string) Config {
			return Config{Targets: targets,
				OutputPath: filepath.Join(dir, "missing", "out.jsonl"), CSVPath: filepath.Join(dir, "out.csv")}
		}, false, "missing"},
		{"span off the frontier", func(dir string) Config {
			return Config{Targets: targets, CheckpointEvery: 1,
				OutputPath: filepath.Join(dir, "out.jsonl"), CSVPath: filepath.Join(dir, "out.csv"),
				CheckpointPath: filepath.Join(dir, "ckpt.json")}
		}, true, "emit of span [1,2) at frontier 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			em, err := NewEmitter(tc.cfg(dir))
			if tc.emit {
				if err != nil {
					t.Fatal(err)
				}
				rec := []byte("{}\n")
				err = em.EmitSpan(1, 2, rec, rec)
				if _, ferr := em.Finish(err); ferr != err {
					t.Fatalf("Finish returned %v, want the emit error %v", ferr, err)
				}
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
			entries, rerr := os.ReadDir(dir)
			if rerr != nil {
				t.Fatal(rerr)
			}
			for _, e := range entries {
				info, ierr := e.Info()
				if ierr != nil {
					t.Fatal(ierr)
				}
				if !tc.emit || info.Size() != 0 {
					t.Errorf("refused run left %s (%d bytes)", e.Name(), info.Size())
				}
			}
		})
	}
}

// TestCampaignResumeTruncatesUnacknowledged simulates a crash where the
// output ran ahead of the checkpoint: extra records past the checkpoint
// must be dropped and re-probed to the same bytes.
func TestCampaignResumeTruncatesUnacknowledged(t *testing.T) {
	_, fullBytes := runCampaign(t, t.TempDir(), 8, nil)

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	runCampaign(t, dir, 8, func(c *Config) {
		c.CheckpointPath = ckpt
		c.CheckpointEvery = 1
		c.StopAfter = 9
	})
	// Claim fewer emitted than the file holds, as after a crash between
	// output write and checkpoint save.
	targets, _ := Enumerate(smallSpec())
	ck := Checkpoint{Fingerprint: Fingerprint(targets, 4), Done: 5}
	if err := ck.Save(ckpt); err != nil {
		t.Fatal(err)
	}
	_, resumedBytes := runCampaign(t, dir, 8, func(c *Config) {
		c.CheckpointPath = ckpt
		c.Resume = true
	})
	if !bytes.Equal(fullBytes, resumedBytes) {
		t.Fatal("resume after over-written output differs from uninterrupted run")
	}
}

// TestCheckpointNeverAheadOfOutput is the crash-safety invariant: at the
// moment a checkpoint is durably saved, the output file must already hold
// at least that many complete records — otherwise a crash right after the
// save leaves an unresumable campaign. Observed through the Progress
// callback, which runs after each emit (and thus after any checkpoint).
func TestCheckpointNeverAheadOfOutput(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	ckpt := filepath.Join(dir, "ckpt.json")
	runCampaign(t, dir, 8, func(c *Config) {
		c.CheckpointPath = ckpt
		c.CheckpointEvery = 1
		c.Progress = func(done, total int) {
			ck, err := LoadCheckpoint(ckpt)
			if err != nil {
				t.Fatalf("at done=%d: %v", done, err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatalf("at done=%d: %v", done, err)
			}
			if lines := bytes.Count(data, []byte("\n")); lines < ck.Done {
				t.Fatalf("checkpoint acknowledges %d records but output holds %d", ck.Done, lines)
			}
		}
	})
}

// TestCampaignResumeCSV checks the resume contract extends to the CSV
// sink: the resumed CSV equals an uninterrupted run's byte for byte.
func TestCampaignResumeCSV(t *testing.T) {
	fullDir := t.TempDir()
	runCampaign(t, fullDir, 8, func(c *Config) {
		c.CSVPath = filepath.Join(fullDir, "out.csv")
	})
	fullCSV, err := os.ReadFile(filepath.Join(fullDir, "out.csv"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	csv := filepath.Join(dir, "out.csv")
	runCampaign(t, dir, 8, func(c *Config) {
		c.CSVPath = csv
		c.CheckpointPath = ckpt
		c.CheckpointEvery = 1
		c.StopAfter = 7
	})
	runCampaign(t, dir, 8, func(c *Config) {
		c.CSVPath = csv
		c.CheckpointPath = ckpt
		c.Resume = true
	})
	resumedCSV, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullCSV, resumedCSV) {
		t.Fatal("resumed CSV differs from uninterrupted run")
	}
}

// TestCheckpointFingerprintMismatch checks that a checkpoint cannot
// resume a different campaign.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	if err := (Checkpoint{Fingerprint: 0xdead, Done: 3}).Save(ckpt); err != nil {
		t.Fatal(err)
	}
	targets, err := Enumerate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		Targets:        targets,
		Samples:        4,
		OutputPath:     filepath.Join(dir, "out.jsonl"),
		CheckpointPath: ckpt,
		Resume:         true,
	})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("fingerprint mismatch not rejected: %v", err)
	}
}

// runRecords runs cfg with its JSONL written to a scratch file and returns
// the summary and the file's records, decoded with encoding/json.
func runRecords(t *testing.T, cfg Config) (*Summary, []TargetResult) {
	t.Helper()
	cfg.OutputPath = filepath.Join(t.TempDir(), "out.jsonl")
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	var records []TargetResult
	for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); {
		var r TargetResult
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		records = append(records, r)
	}
	return sum, records
}

// TestCSVSink checks header, row cadence and resume header suppression.
func TestCSVSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSVSink(&buf, false, false)
	r := &TargetResult{Index: 0, Name: "n", Profile: "p", Impairment: "i", Test: "single", Attempts: 1}
	if err := s.EmitBatch(appendCSVRow(nil, r, false, false)); err != nil {
		t.Fatal(err)
	}
	if err := s.EmitBatch(appendCSVRow(nil, r, false, false)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "index,name,profile") {
		t.Fatalf("bad header: %s", lines[0])
	}

}

// TestAggregatorShardingInvariance checks that spreading the same results
// over many shards or one produces the same summary.
func TestAggregatorShardingInvariance(t *testing.T) {
	targets, err := Enumerate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	var results []*TargetResult
	for _, tg := range targets {
		results = append(results, ProbeTarget(tg, 4, 0))
	}

	one := NewAggregator(1)
	for _, r := range results {
		one.Shard(0).Add(r)
	}
	many := NewAggregator(8)
	for i, r := range results {
		many.Shard(7 - i%8).Add(r) // adversarial spread
	}
	if !reflect.DeepEqual(one.Summary(), many.Summary()) {
		t.Fatal("shard layout changed the summary")
	}
}

// TestSummaryQuantilesMatchRawPool is the histogram-resolution acceptance
// contract on the full deterministic 2016-target campaign: every summary
// quantile must agree with the quantile of the raw per-target sample pool
// (what the aggregator used to hold in memory) to within one bin width.
func TestSummaryQuantilesMatchRawPool(t *testing.T) {
	if testing.Short() {
		t.Skip("full 2016-target campaign")
	}
	targets, err := Enumerate(EnumSpec{Seeds: 7, BaseSeed: 719})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2016 {
		t.Fatalf("default enumeration is %d targets, want 2016", len(targets))
	}
	var pathRates, rtts, exposures []float64
	sum, records := runRecords(t, Config{Targets: targets, Samples: 8, Workers: 16})
	for i := range records {
		r := &records[i]
		if r.Err != "" || r.DCTExcluded != "" {
			continue
		}
		if rate, ok := r.PathRate(); ok {
			pathRates = append(pathRates, rate)
		}
		if r.RTTMicros > 0 {
			rtts = append(rtts, float64(r.RTTMicros))
		}
		if r.SeqReceived > 0 {
			exposures = append(exposures, r.SeqDupthreshExposure)
		}
	}

	check := func(name string, got RateSummary, raw []float64, binWidth func(x float64) float64) {
		t.Helper()
		if got.N != len(raw) {
			t.Fatalf("%s: N = %d, raw pool has %d", name, got.N, len(raw))
		}
		if len(raw) == 0 {
			return
		}
		cdf := stats.NewCDF(raw)
		for _, q := range []struct {
			p    float64
			got  float64
			name string
		}{{0.50, got.P50, "p50"}, {0.90, got.P90, "p90"}, {0.99, got.P99, "p99"}} {
			rawQ := cdf.Quantile(q.p)
			if diff := math.Abs(q.got - rawQ); diff > binWidth(rawQ) {
				t.Errorf("%s %s: histogram %v vs raw %v, off by %v > bin width %v",
					name, q.name, q.got, rawQ, diff, binWidth(rawQ))
			}
		}
		rawSum := stats.Summarize(raw)
		if got.Min != rawSum.Min || got.Max != rawSum.Max {
			t.Errorf("%s: min/max %v/%v not exact vs raw %v/%v", name, got.Min, got.Max, rawSum.Min, rawSum.Max)
		}
	}
	rateBin := func(x float64) float64 { return 1.0 / 256 }
	check("path-rates", sum.PathRates, pathRates, rateBin)
	check("dupthresh-exposure", sum.DupthreshExposure, exposures, rateBin)
	check("rtt", sum.RTTMicros, rtts, func(x float64) float64 {
		h := stats.NewHistogram(stats.LogEdges(1, 1e9, 288))
		return h.BinWidth(x)
	})
	if sum.PathRates.N == 0 || sum.RTTMicros.N == 0 || sum.DupthreshExposure.N == 0 {
		t.Fatalf("empty pools: %+v", sum)
	}
}

// TestAggregatorSequenceMetrics checks the RFC 4737 fields flow from a
// transfer probe through the aggregator into the summary.
func TestAggregatorSequenceMetrics(t *testing.T) {
	agg := NewAggregator(2)
	// Synthetic transfer results: one deeply reordered, one clean.
	agg.Shard(0).Add(&TargetResult{
		Test: "transfer", Attempts: 1, FwdValid: 10, FwdReordered: 4, FwdRate: 0.4,
		AnyReordering: true, RTTMicros: 1500,
		SeqReceived: 20, SeqMaxExtent: 7, SeqNReordering: 4, SeqDupthreshExposure: 0.2,
	})
	agg.Shard(1).Add(&TargetResult{
		Test: "transfer", Attempts: 1, FwdValid: 10, FwdRate: 0,
		RTTMicros: 900, SeqReceived: 20,
	})
	// A non-transfer result must not contribute to the sequence pools.
	agg.Shard(0).Add(&TargetResult{
		Test: "single", Attempts: 1, FwdValid: 8, FwdRate: 0.25, RTTMicros: 700,
	})
	sum := agg.Summary()
	if sum.SeqMaxExtents.N != 2 || sum.DupthreshExposure.N != 2 {
		t.Fatalf("sequence pools: %+v", sum)
	}
	if sum.SeqMaxExtents.Max != 7 || sum.SeqMaxExtents.Min != 0 {
		t.Fatalf("extent min/max: %+v", sum.SeqMaxExtents)
	}
	if sum.DupthreshExposure.Max != 0.2 {
		t.Fatalf("exposure max: %+v", sum.DupthreshExposure)
	}
	var buf bytes.Buffer
	sum.WriteText(&buf)
	if !strings.Contains(buf.String(), "rfc4737 max reordering extent") ||
		!strings.Contains(buf.String(), "dupthresh-3 exposure") {
		t.Fatalf("summary text missing sequence lines:\n%s", buf.String())
	}
}

// TestCampaignWindowPlumbed checks every scheduler knob on Config —
// Window in particular, which used to be unreachable — survives the
// mapping into SchedulerConfig, and that a tightly windowed campaign
// still completes with the standard output.
func TestCampaignWindowPlumbed(t *testing.T) {
	cfg := Config{Workers: 3, Retries: 2, Window: 13}
	got := cfg.schedulerConfig()
	want := SchedulerConfig{Workers: 3, Retries: 2, Window: 13}
	if got != want {
		t.Fatalf("schedulerConfig() = %+v, want %+v", got, want)
	}

	_, bytesDefault := runCampaign(t, t.TempDir(), 8, nil)
	_, bytesWindowed := runCampaign(t, t.TempDir(), 8, func(c *Config) {
		c.Window = 1 // clamped up to Workers by NewScheduler, but exercises the path
	})
	if !bytes.Equal(bytesDefault, bytesWindowed) {
		t.Fatal("window size changed campaign output")
	}
}

// TestSummaryWriteTextDeterministic locks the report rendering down.
func TestSummaryWriteTextDeterministic(t *testing.T) {
	sum, _ := runCampaign(t, t.TempDir(), 4, nil)
	var a, b bytes.Buffer
	sum.WriteText(&a)
	sum.WriteText(&b)
	if a.String() != b.String() || a.Len() == 0 {
		t.Fatal("summary rendering unstable or empty")
	}
}

// fingerprintReference is Fingerprint as it was first written — every line
// formatted into hash/fnv's New64a — kept as the definition of the frozen
// byte stream the in-place fold must reproduce.
func fingerprintReference(targets []Target, samples int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "format=%d\nsamples=%d\n", recordFormat, samples)
	for _, t := range targets {
		fmt.Fprintf(h, "%s|%s|%s|%d", t.Profile, t.Impairment, t.Test, t.Seed)
		if t.Topology != "" {
			fmt.Fprintf(h, "|%s", t.Topology)
		}
		if t.Scenario != "" {
			fmt.Fprintf(h, "|#%s", t.Scenario)
		}
		fmt.Fprint(h, "\n")
	}
	return h.Sum64()
}

// TestFingerprintMatchesReference holds the in-place fold to the reference
// over seeded lists with and without the optional segments, seeds at both
// ends of the digit range and sample counts of either sign.
func TestFingerprintMatchesReference(t *testing.T) {
	rng := sim.NewRand(20, 0xf1)
	pick := func(names []string) string { return names[rng.IntN(len(names))] }
	topologies := append([]string{"", ""}, TopologyNames()...)
	scenarios := append([]string{"", ""}, ScenarioNames()...)
	for n := 0; n < 200; n++ {
		targets := make([]Target, rng.IntN(40))
		for i := range targets {
			targets[i] = Target{
				Profile: pick(Profiles()), Impairment: pick(ImpairmentNames()), Test: pick(Tests),
				Seed: rng.Uint64() >> uint(rng.IntN(64)), Topology: pick(topologies), Scenario: pick(scenarios),
			}
		}
		if n == 0 {
			targets = append(targets, Target{Seed: 0}, Target{Seed: math.MaxUint64, Topology: "t", Scenario: "s"})
		}
		samples := rng.IntN(64) - 8
		if got, want := Fingerprint(targets, samples), fingerprintReference(targets, samples); got != want {
			t.Fatalf("list %d (%d targets, samples %d): Fingerprint %#x, reference %#x", n, len(targets), samples, got, want)
		}
	}
}
