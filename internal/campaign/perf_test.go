package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestArenaReuseMatchesFreshProbes is the arena hermeticity guard at the
// probe level: one ProbeArena carried across a diverse target sequence
// must yield records identical to fresh per-target construction — the
// invariant that lets campaign workers reuse scenarios without changing a
// byte of output.
func TestArenaReuseMatchesFreshProbes(t *testing.T) {
	targets, err := Enumerate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	arena := NewProbeArena()
	for _, tg := range targets {
		fresh := ProbeTarget(tg, 4, 0)
		reused := arena.ProbeTarget(tg, 4, 0)
		f := fresh.AppendJSON(nil)
		r := reused.AppendJSON(nil)
		if !bytes.Equal(f, r) {
			t.Fatalf("target %s: arena probe differs from fresh probe:\nfresh:  %s\nreused: %s", tg.Name, f, r)
		}
	}
	// Retries draw a different stream; the arena must track that too.
	tg := targets[0]
	if !bytes.Equal(ProbeTarget(tg, 4, 2).AppendJSON(nil), arena.ProbeTarget(tg, 4, 2).AppendJSON(nil)) {
		t.Fatal("arena probe differs from fresh probe on a retry attempt")
	}
}

// TestArenaCampaignMatchesFreshPerTarget is the determinism guard the
// fast path is gated on: a campaign (whose workers reuse arenas) must
// produce JSONL and CSV byte-identical to a fresh-per-target construction
// at workers 1, 4 and 16, and across a StopAfter checkpoint/resume split.
func TestArenaCampaignMatchesFreshPerTarget(t *testing.T) {
	targets, err := Enumerate(smallSpec())
	if err != nil {
		t.Fatal(err)
	}

	// Expected output: every target probed fresh, streamed through the
	// same sinks the campaign uses.
	var wantJSONL, wantCSV bytes.Buffer
	js := NewJSONLSink(&wantJSONL)
	cs := NewCSVSink(&wantCSV)
	for _, tg := range targets {
		r := ProbeTarget(tg, 4, 0)
		if err := js.Emit(r); err != nil {
			t.Fatal(err)
		}
		if err := cs.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 16} {
		dir := t.TempDir()
		csvPath := filepath.Join(dir, "out.csv")
		_, gotJSONL := runCampaign(t, dir, workers, func(c *Config) { c.CSVPath = csvPath })
		if !bytes.Equal(wantJSONL.Bytes(), gotJSONL) {
			t.Fatalf("workers=%d: arena campaign JSONL differs from fresh-per-target output", workers)
		}
		gotCSV, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantCSV.Bytes(), gotCSV) {
			t.Fatalf("workers=%d: arena campaign CSV differs from fresh-per-target output", workers)
		}
	}

	// StopAfter + resume: the resumed run re-enters arenas mid-campaign.
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.json")
	csvPath := filepath.Join(dir, "out.csv")
	var gotJSONL []byte
	for i, window := range []int{10, 0} {
		_, gotJSONL = runCampaign(t, dir, 4, func(c *Config) {
			c.CSVPath = csvPath
			c.CheckpointPath = ckpt
			c.Resume = i > 0
			c.StopAfter = window
		})
	}
	if !bytes.Equal(wantJSONL.Bytes(), gotJSONL) {
		t.Fatal("resumed arena campaign JSONL differs from fresh-per-target output")
	}
	gotCSV, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantCSV.Bytes(), gotCSV) {
		t.Fatal("resumed arena campaign CSV differs from fresh-per-target output")
	}
}

// TestAppendJSONMatchesMarshal pins AppendJSON to encoding/json byte for
// byte, across omitempty boundaries, float formats and string escaping.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	cases := []*TargetResult{
		{}, // all zero: every omitempty field absent
		{
			Index: 3, Name: "freebsd4/swap-heavy/single/s7", Profile: "freebsd4",
			Impairment: "swap-heavy", Test: "single", Seed: 18446744073709551615,
			Attempts: 2, FwdValid: 8, FwdReordered: 3, FwdRate: 0.375,
			RevValid: 8, RevReordered: 1, RevRate: 0.125,
			AnyReordering: true, RTTMicros: 10499,
		},
		{
			Name: "escape <&> \"quotes\" \\ tab\t nl\n cr\r ctl\x01 high\u2028\u2029 bad\xff utf8ok→",
			Err:  "campaign: target 9: core: handshake with target failed",
		},
		{
			Test: "transfer", SeqRatio: 1.0 / 3.0, SeqReceived: 21,
			SeqMaxExtent: 12, SeqNReordering: 2, SeqDupthreshExposure: 2.0 / 21.0,
		},
		{FwdRate: 1e-7, RevRate: 3.1e21, SeqRatio: 0.1, SeqDupthreshExposure: 5e-324},
		{FwdRate: math.MaxFloat64, RevRate: -1e-9, RTTMicros: -17},
		{DCTExcluded: "zero-ipid", Err: "boom"},
		{
			Name: "freebsd4/clean/single/s7@parallel-x2", Profile: "freebsd4",
			Impairment: "clean", Test: "single", Topology: "parallel-x2",
			FwdValid: 8, FwdReordered: 2, FwdRate: 0.25, AnyReordering: true,
		},
		{
			Name: "freebsd4/swap-heavy/syn/s2@diamond#route-flap", Profile: "freebsd4",
			Impairment: "swap-heavy", Test: "syn", Topology: "diamond",
			Scenario: "route-flap", FwdValid: 8, FwdReordered: 4, FwdRate: 0.5,
		},
		{Scenario: "rst-inject", Err: "core: connection reset"},
	}
	for i, r := range cases {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got := r.AppendJSON(nil)
		if !bytes.Equal(want, got) {
			t.Fatalf("case %d:\n json.Marshal: %s\n AppendJSON:   %s", i, want, got)
		}
		// Appending after existing content must not disturb either part.
		pre := []byte("prefix|")
		if got := r.AppendJSON(pre); !bytes.Equal(got, append([]byte("prefix|"), want...)) {
			t.Fatalf("case %d: AppendJSON corrupted the destination prefix", i)
		}
	}
}

// TestProbeAllocBudget pins the steady-state probe allocation budget: a
// warmed arena probe must stay under 10 allocations (the seed's cost was
// ~930, PR 3 brought it to 77, topology pooling to 3, and the frame-view
// fast path holds there with zero codec allocations). A regression here
// means a fast-path allocation crept back in — an element rebuilt instead
// of reinitialized, a payload literal escaping through an interface call,
// a per-connection struct escaping its pool.
func TestProbeAllocBudget(t *testing.T) {
	for _, tg := range []Target{
		{Profile: "freebsd4", Impairment: "swap-heavy", Test: "single", Seed: 7},
		// A routed graph rebuilt per probe — routers, link bundles, three
		// cross-traffic flows — draws everything from the same pools.
		{Profile: "freebsd4", Impairment: "clean", Test: "single", Seed: 7, Topology: "multihop"},
	} {
		arena := NewProbeArena()
		var res TargetResult
		for i := 0; i < 3; i++ { // warm the arena's slabs, pools and scratch
			if arena.ProbeTargetInto(&res, tg, 8, 0); res.Err != "" {
				t.Fatalf("probe errored: %s", res.Err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if arena.ProbeTargetInto(&res, tg, 8, 0); res.Err != "" {
				t.Fatalf("probe errored: %s", res.Err)
			}
		})
		const budget = 10
		if allocs > budget {
			t.Fatalf("steady-state probe of %q allocates %.0f objects, budget %d", tg.Topology, allocs, budget)
		}
	}
}

// cleanSurvey probes n targets whose records carry no error or exclusion
// text — the common case of a survey prefix, where replay should cost no
// allocation per record.
func cleanSurvey(tb testing.TB, n int) ([]Target, []TargetResult) {
	tb.Helper()
	spec := EnumSpec{Impairments: []string{"clean", "swap-light"}, Tests: []string{"single", "syn", "transfer"}}
	spec.Seeds = n/(len(Profiles())*len(spec.Impairments)*len(spec.Tests)) + 1
	targets, err := Enumerate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	targets = targets[:n]
	results := make([]TargetResult, n)
	arena := NewProbeArena()
	for i := range targets {
		if arena.ProbeTargetInto(&results[i], targets[i], 4, 0); results[i].Err != "" || results[i].DCTExcluded != "" {
			tb.Fatalf("survey record %d is not clean: %+v", i, results[i])
		}
	}
	return targets, results
}

// TestCSVRowAllocBudget pins the CSV renderer at zero allocations per row
// once the destination has grown: it is on the per-target path of every
// campaign with a CSV sink, live and replayed.
func TestCSVRowAllocBudget(t *testing.T) {
	_, results := mixedCampaign(t)
	enc := NewCSVRowEncoder()
	enc.IncludeTopology()
	enc.IncludeScenario()
	var buf []byte
	render := func() {
		buf = buf[:0]
		for i := range results {
			buf, _ = enc.AppendRow(buf, &results[i]) // AppendRow's error is always nil
		}
	}
	render()
	if allocs := testing.AllocsPerRun(10, render); allocs != 0 {
		t.Fatalf("rendering %d CSV rows allocates %.0f objects, want 0", len(results), allocs)
	}
}

// TestReplayAllocBudget pins replay at a constant number of allocations —
// the slab, the file, the reader and the decoder's scratch — however many
// records it reads: zero per record.
func TestReplayAllocBudget(t *testing.T) {
	targets, results := cleanSurvey(t, 1000)
	path := writeRecords(t, results)
	allocs := testing.AllocsPerRun(5, func() {
		got, err := replayOutput(path, targets, len(targets))
		if err != nil || len(got) != len(targets) {
			t.Fatalf("replayed %d of %d records: %v", len(got), len(targets), err)
		}
	})
	const budget = 8
	if allocs > budget {
		t.Fatalf("replaying %d records allocates %.0f objects, budget %d", len(targets), allocs, budget)
	}
}

// BenchmarkReplay measures a resume's set-up — checkpoint load, fingerprint,
// JSONL replay and, with a CSV sink, the CSV rebuild — per replayed record.
func BenchmarkReplay(b *testing.B) {
	const records = 4096
	targets, results := cleanSurvey(b, records)
	jsonl := writeRecords(b, results)
	dir := filepath.Dir(jsonl)
	ckpt := filepath.Join(dir, "ckpt.json")
	if err := (Checkpoint{Fingerprint: Fingerprint(targets, 4), Done: records}).Save(ckpt); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, csv string }{
		{"jsonl", ""},
		{"jsonl+csv", filepath.Join(dir, "out.csv")},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				em, err := NewEmitter(Config{
					Targets: targets, Samples: 4, OutputPath: jsonl, CSVPath: bc.csv,
					CheckpointPath: ckpt, Resume: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(em.Replayed()) != records {
					b.Fatalf("replayed %d of %d records", len(em.Replayed()), records)
				}
				if _, err := em.Finish(nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
		})
	}
}

// BenchmarkCSVRow measures the CSV renderer over a mixed campaign's records.
func BenchmarkCSVRow(b *testing.B) {
	_, results := mixedCampaign(b)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendCSVRow(buf[:0], &results[i%len(results)], true, true)
	}
	b.SetBytes(int64(len(buf)))
}
