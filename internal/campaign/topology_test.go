package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGraphConstructorGoldenSeam pins the tentpole's compatibility seam:
// point-to-point scenarios routed through the topology-graph constructor's
// degenerate dispatch (an empty spec instead of nil) must still produce
// the pre-refactor golden bytes across worker counts, batching and a
// mid-batch resume.
func TestGraphConstructorGoldenSeam(t *testing.T) {
	debugDegenerateTopology = true
	defer func() { debugDegenerateTopology = false }()
	for _, m := range [][2]int{{1, 8}, {4, 8}, {16, 64}} {
		for _, split := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/batch=%d/split=%v", m[0], m[1], split)
			jsonl, csv, _, _ := runGoldenCampaign(t, m[0], m[1], 0, split)
			if got := sha256Hex(jsonl); got != goldenJSONLSHA {
				t.Errorf("%s: degenerate graph dispatch changed JSONL bytes: %s", name, got)
			}
			if got := sha256Hex(csv); got != goldenCSVSHA {
				t.Errorf("%s: degenerate graph dispatch changed CSV bytes: %s", name, got)
			}
		}
	}
}

func TestEnumerateTopologies(t *testing.T) {
	spec := EnumSpec{
		Profiles:    []string{"freebsd4"},
		Impairments: []string{"clean"},
		Tests:       []string{"single"},
		Seeds:       2,
		Topologies:  []string{"", "parallel-x2"},
	}
	targets, err := Enumerate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 4 {
		t.Fatalf("enumerated %d targets, want 4", len(targets))
	}
	// Topology is the outermost dimension; "" targets come first and are
	// identical to a topology-free enumeration.
	plain, err := Enumerate(EnumSpec{
		Profiles: spec.Profiles, Impairments: spec.Impairments,
		Tests: spec.Tests, Seeds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if targets[i] != plain[i] {
			t.Fatalf("target %d: %+v != topology-free %+v", i, targets[i], plain[i])
		}
	}
	for _, tg := range targets[2:] {
		if tg.Topology != "parallel-x2" {
			t.Fatalf("topology = %q", tg.Topology)
		}
		if !strings.HasSuffix(tg.Name, "@parallel-x2") {
			t.Fatalf("name %q lacks topology suffix", tg.Name)
		}
	}
	// The topology is mixed into the seed, so the same replica draws a
	// different scenario on a different graph.
	if targets[2].Seed == targets[0].Seed {
		t.Fatal("topology not mixed into derived seed")
	}
	if _, err := Enumerate(EnumSpec{Topologies: []string{"no-such"}}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestTargetsFileTopologyRoundTrip(t *testing.T) {
	targets, err := Enumerate(EnumSpec{
		Profiles:    []string{"freebsd4", "linux22"},
		Impairments: []string{"clean"},
		Tests:       []string{"single", "transfer"},
		Topologies:  []string{"", "bottleneck", "multihop"},
	})
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
	if len(loaded) != len(targets) {
		t.Fatalf("loaded %d targets, want %d", len(loaded), len(targets))
	}
	for i := range targets {
		if loaded[i] != targets[i] {
			t.Fatalf("target %d: %+v != %+v", i, loaded[i], targets[i])
		}
	}
	if _, err := LoadTargets(strings.NewReader("freebsd4 clean single 1 no-such-topo\n")); err == nil {
		t.Fatal("unknown topology in targets file accepted")
	}
}

// topoCampaign runs a mixed p2p+topology campaign and returns its JSONL
// and CSV bytes.
func topoCampaign(t *testing.T, workers, batch int, split bool) ([]byte, []byte) {
	t.Helper()
	targets, err := Enumerate(EnumSpec{
		Profiles:    []string{"freebsd4"},
		Impairments: []string{"clean", "swap-light"},
		Tests:       []string{"single", "dual", "transfer"},
		Seeds:       2,
		Topologies:  []string{"", "bottleneck", "parallel-x2"},
	})
	if err != nil {
		t.Fatal(err)
	}
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

// TestTopologyCampaignSchedulingInvariance extends the byte-identity
// contract to topology targets: worker count, batch size and a mid-run
// resume must not change a byte of JSONL or CSV — which also pins that a
// pooled topology graph reset between targets is observably identical to
// a freshly built one.
func TestTopologyCampaignSchedulingInvariance(t *testing.T) {
	refJSONL, refCSV := topoCampaign(t, 1, 1, false)
	if !bytes.Contains(refCSV, []byte("topology")) {
		t.Fatal("topology column missing from mixed-campaign CSV")
	}
	if !bytes.Contains(refJSONL, []byte(`"topology":"parallel-x2"`)) {
		t.Fatal("topology field missing from JSONL records")
	}
	// p2p records must not grow the field.
	first := refJSONL[:bytes.IndexByte(refJSONL, '\n')]
	if bytes.Contains(first, []byte(`"topology"`)) {
		t.Fatalf("point-to-point record gained a topology field: %s", first)
	}
	for _, m := range [][2]int{{4, 8}, {16, 3}} {
		jsonl, csv := topoCampaign(t, m[0], m[1], false)
		if !bytes.Equal(jsonl, refJSONL) || !bytes.Equal(csv, refCSV) {
			t.Fatalf("workers=%d batch=%d changed campaign bytes", m[0], m[1])
		}
	}
	jsonl, csv := topoCampaign(t, 4, 8, true)
	if !bytes.Equal(jsonl, refJSONL) || !bytes.Equal(csv, refCSV) {
		t.Fatal("resumed topology campaign differs from uninterrupted run")
	}
}

// TestCongestionInducedReordering is the tentpole's acceptance criterion:
// a shared-bottleneck topology whose inter-router bundle is two parallel
// links loaded by two background TCP flows — with the "clean" impairment,
// i.e. ZERO mechanism-injected reordering, loss or jitter — must produce
// measurable reordering in probe measurements, purely from round-robin
// spray across unevenly queued links.
func TestCongestionInducedReordering(t *testing.T) {
	targets, err := Enumerate(EnumSpec{
		Profiles:    []string{"freebsd4"},
		Impairments: []string{"clean"},
		Tests:       []string{"single", "dual", "transfer"},
		Seeds:       6,
		Topologies:  []string{"parallel-x2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	reordered, probed := 0, 0
	_, records := runRecords(t, Config{Targets: targets, Samples: 16, Workers: 4})
	for _, r := range records {
		if r.Err == "" && r.DCTExcluded == "" {
			probed++
			if r.AnyReordering {
				reordered++
			}
		}
	}
	if probed == 0 {
		t.Fatal("no successful probes over the shared bottleneck")
	}
	if reordered == 0 {
		t.Fatalf("no congestion-induced reordering observed across %d clean-path probes", probed)
	}
	t.Logf("congestion-induced reordering: %d/%d probes saw reordering", reordered, probed)
}
