package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"reorder/internal/netem"
)

// TestViewDifferentialCatalog is the frame-view acceptance property: a
// campaign over the full impairment catalog (adjacent swaps, trunk striping,
// multi-path spray, ARQ recovery, loss, jitter, clean) across reordering-
// relevant profiles and all four techniques must produce byte-identical
// JSONL and CSV with zero-copy views enabled (the default) and with
// netem.DebugForceMaterialize driving every frame through the eager
// encode/decode wire path. Any divergence means a view lied about what the
// wire would have carried. The catalog is run point-to-point and over the
// multihop topology, whose three background flows build their segments on
// payload bytes shared with the sender's pattern table (NewTCPFrameShared),
// as the serving stack builds every transfer probe's data segments on its
// own table: forced materialization encodes every one of those from the
// shared bytes.
func TestViewDifferentialCatalog(t *testing.T) {
	targets, err := Enumerate(EnumSpec{
		// Full impairment catalog and all four tests (nil selects all);
		// profiles cover counter/zero/random IPIDs plus the load-balanced
		// pool, so the dual-test prevalidation and LB paths run too.
		Profiles:   []string{"freebsd4", "linux24", "openbsd3", LBPool},
		Topologies: []string{"", "multihop"},
		Seeds:      1,
		BaseSeed:   977,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(force bool) (jsonl, csv []byte) {
		t.Helper()
		prev := netem.DebugForceMaterialize
		netem.DebugForceMaterialize = force
		defer func() { netem.DebugForceMaterialize = prev }()
		dir := t.TempDir()
		out := filepath.Join(dir, "out.jsonl")
		csvPath := filepath.Join(dir, "out.csv")
		if _, err := Run(Config{
			Targets: targets, Samples: 4, Workers: 4,
			OutputPath: out, CSVPath: csvPath,
		}); err != nil {
			t.Fatal(err)
		}
		jsonl, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		csv, err = os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		return jsonl, csv
	}

	viewJSONL, viewCSV := run(false)
	wireJSONL, wireCSV := run(true)
	if !bytes.Equal(viewJSONL, wireJSONL) {
		t.Error("JSONL differs between frame-view and force-materialize runs")
	}
	if !bytes.Equal(viewCSV, wireCSV) {
		t.Error("CSV differs between frame-view and force-materialize runs")
	}
}
