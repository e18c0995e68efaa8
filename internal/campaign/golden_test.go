package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Pre-batching goldens: SHA-256 of the JSONL and CSV a campaign over
// smallSpec (samples 4) produced BEFORE the batched pipeline, span
// dispatch and topology pooling landed — captured from the per-target
// emit path at commit bc39f91. Byte-identical output at any worker count,
// batch size and across checkpoint/resume is the hard invariant of the
// batching work; these constants make "identical" mean identical to the
// old code, not merely self-consistent.
const (
	goldenJSONLSHA = "22cc82ab230dcdacff6c2875579a19a0c9102c242660d707cee135207ca2bf2a"
	goldenCSVSHA   = "4296e747d9c4a70f30a4ee1763f43c81054c32af000424bf4eea8533d21e7b01"
)

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// runGoldenCampaign runs the smallSpec campaign with the given knobs and
// returns (jsonl, csv, summary-text, checkpoint-bytes).
func runGoldenCampaign(t *testing.T, workers, batch, window int, split bool) ([]byte, []byte, []byte, []byte) {
	t.Helper()
	targets, err := Enumerate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	csv := filepath.Join(dir, "out.csv")
	ckpt := filepath.Join(dir, "ckpt.json")
	phases := [][2]int{{0, 0}} // {stopAfter, resume}
	if split {
		// Stop mid-campaign (deliberately not a multiple of the batch
		// size, so the split lands mid-span) and resume to completion.
		phases = [][2]int{{11, 0}, {0, 1}}
	}
	var sum *Summary
	for _, ph := range phases {
		cfg := Config{
			Targets:        targets,
			Samples:        4,
			Workers:        workers,
			Batch:          batch,
			Window:         window,
			OutputPath:     out,
			CSVPath:        csv,
			CheckpointPath: ckpt,
			StopAfter:      ph[0],
			Resume:         ph[1] == 1,
		}
		sum, err = Run(cfg)
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
	ckptData, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	sum.WriteText(&text)
	return jsonl, csvData, text.Bytes(), ckptData
}

// TestCampaignBatchMatrixGolden is the batching work's acceptance pin:
// JSONL, CSV, the rendered summary and the final checkpoint must be
// byte-identical to the pre-change goldens for every workers × batch
// combination, with adaptive and fixed windows, and across a
// StopAfter/resume split that lands mid-batch.
func TestCampaignBatchMatrixGolden(t *testing.T) {
	var refText, refCkpt []byte
	check := func(name string, workers, batch, window int, split bool) {
		t.Helper()
		jsonl, csv, text, ckpt := runGoldenCampaign(t, workers, batch, window, split)
		if got := sha256Hex(jsonl); got != goldenJSONLSHA {
			t.Errorf("%s: JSONL sha256 %s, want pre-change golden %s", name, got, goldenJSONLSHA)
		}
		if got := sha256Hex(csv); got != goldenCSVSHA {
			t.Errorf("%s: CSV sha256 %s, want pre-change golden %s", name, got, goldenCSVSHA)
		}
		if refText == nil {
			refText, refCkpt = text, ckpt
		} else {
			if !bytes.Equal(refText, text) {
				t.Errorf("%s: summary text differs across the matrix", name)
			}
			if !bytes.Equal(refCkpt, ckpt) {
				t.Errorf("%s: final checkpoint differs across the matrix", name)
			}
		}
	}
	for _, workers := range []int{1, 4, 16} {
		for _, batch := range []int{1, 8, 64} {
			check(fmt.Sprintf("workers=%d/batch=%d", workers, batch), workers, batch, 0, false)
			check(fmt.Sprintf("workers=%d/batch=%d/resumed", workers, batch), workers, batch, 0, true)
		}
	}
	// A tight fixed window forces constant re-sequencing pressure; a huge
	// one removes it entirely. Neither may change a byte.
	check("window-tight", 4, 8, 5, false)
	check("window-huge", 4, 8, 4096, true)
}

// TestDimensionGolden gives the topology and scenario dimensions the
// absolute pins smallSpec gives the point-to-point list: output hashes, the
// checkpoint fingerprint and the derived seeds of scenarioCampaign's mixed
// list, captured at commit fd31ffa. The invariance tests over that list
// compare runs with each other, so a seed-mixer or probe-path slip that
// moved every run alike would pass them; this one it fails.
func TestDimensionGolden(t *testing.T) {
	const (
		wantJSONL = "266213bf83830fb090fde03b628f8f11093b08b598c0cbef8792c20198a34105"
		wantCSV   = "4a7e1e761378d7fa55b03bb99798ab2688c9aa8806f38b9558fae970d3c0beeb"
		wantFP    = uint64(2003458685380848907)
		wantFirst = uint64(16739018349071812674) // static point-to-point: the pre-dimension string
		wantLast  = uint64(2468963930487377175)  // diamond + route-flap: both optional segments
	)
	targets := scenarioTargets(t)
	jsonl, csv := scenarioCampaign(t, 4, 8, false)
	if got := sha256Hex(jsonl); got != wantJSONL {
		t.Errorf("JSONL sha256 %s, want %s", got, wantJSONL)
	}
	if got := sha256Hex(csv); got != wantCSV {
		t.Errorf("CSV sha256 %s, want %s", got, wantCSV)
	}
	if got := Fingerprint(targets, 4); got != wantFP {
		t.Errorf("fingerprint %d, want %d", got, wantFP)
	}
	if got := targets[0].Seed; got != wantFirst {
		t.Errorf("first seed %d, want %d", got, wantFirst)
	}
	if got := targets[len(targets)-1].Seed; got != wantLast {
		t.Errorf("last seed %d, want %d", got, wantLast)
	}
}
