package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
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
	cs := NewCSVSink(&wantCSV, false, false)
	for _, tg := range targets {
		r := ProbeTarget(tg, 4, 0)
		if err := js.EmitBatch(append(r.AppendJSON(nil), '\n')); err != nil {
			t.Fatal(err)
		}
		if err := cs.EmitBatch(appendCSVRow(nil, r, false, false)); err != nil {
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

// TestAppendJSONKeepsControlEscapes pins the record bytes where AppendJSON
// and encoding/json part: since Go 1.22 json.Marshal writes U+0008 and
// U+000C as \b and \f, while records have always carried \u0008 and \u000c.
// Changing that would change the record format. The record still replays.
func TestAppendJSONKeepsControlEscapes(t *testing.T) {
	tg := Target{Name: "n", Profile: "linux24", Impairment: "clean", Test: "single"}
	r := TargetResult{Name: tg.Name, Profile: tg.Profile, Impairment: tg.Impairment, Test: tg.Test,
		Attempts: 1, Err: "a\bb\fc"}
	got := r.AppendJSON(nil)
	want, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	want = bytes.Replace(want, []byte(`"error":"a\bb\fc"`), []byte(`"error":"a\u0008b\u000cc"`), 1)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON:\n %s\nwant:\n %s", got, want)
	}
	var dec recordDecoder
	var back TargetResult
	if err := dec.decode(got, &tg, &back); err != nil || back != r {
		t.Fatalf("replayed as %+v, %v", back, err)
	}
}

// allocMatrix lists the cells of the warmed-probe matrix: every test on
// every profile over a clean path, every impairment under the single
// connection test, and every scenario and every topology under the
// cheapest technique and the one with the most per-probe state.
func allocMatrix() []Target {
	var cells []Target
	for _, te := range Tests {
		for _, p := range Profiles() {
			cells = append(cells, Target{Profile: p, Impairment: "clean", Test: te})
		}
	}
	for _, im := range ImpairmentNames() {
		cells = append(cells, Target{Profile: "freebsd4", Impairment: im, Test: "single"})
	}
	for _, te := range []string{"single", "transfer"} {
		for _, scn := range ScenarioNames() {
			cells = append(cells, Target{Profile: "freebsd4", Impairment: "clean", Test: te,
				Scenario: scn, Topology: ScenarioTopology(scn)})
		}
		for _, tp := range TopologyNames() {
			cells = append(cells, Target{Profile: "freebsd4", Impairment: "clean", Test: te, Topology: tp})
		}
	}
	for i := range cells {
		cells[i].Name = cells[i].defaultName()
	}
	return cells
}

// checkProbeAllocMatrix holds probe to the matrix's budget: per cell, a
// fresh arena from newArena, five warm-up probes (slabs, pools and scratch
// grow to what the cell needs), then ten seeds measured one by one. Each
// measurement probes its seed twice and counts the second: a seed that
// needs a deeper event heap or a longer frame slab than any before it grows
// them in the first, so what is counted is what every probe pays. A
// collection runs before each count, so that none finishes inside it: the
// runtime's own goroutines allocate after a cycle, and at GOMAXPROCS=1 they
// would run inside the counted probe. A probe that ends without an error
// allocates nothing. One that ends with an error may allocate its message —
// a failed handshake is the error and the string read from it — and nothing
// else. With -v each cell logs its mean allocations and bytes per probe, the
// README's matrix.
func checkProbeAllocMatrix(t *testing.T, newArena func() *ProbeArena, probe func(*ProbeArena, *TargetResult, Target)) {
	for _, tg := range allocMatrix() {
		arena := newArena()
		var res TargetResult
		next := func() { probe(arena, &res, tg) }
		for tg.Seed = 1; tg.Seed <= 5; tg.Seed++ {
			next()
		}
		const runs = 10
		var total float64
		var errored int
		for i := 0; i < runs; i, tg.Seed = i+1, tg.Seed+1 {
			runtime.GC()
			allocs := testing.AllocsPerRun(1, next)
			total += allocs
			if res.Err != "" {
				errored++
			}
			switch {
			case res.Err == "" && allocs != 0:
				t.Errorf("%s seed %d: warmed probe allocates %.0f objects, want 0", tg.Name, tg.Seed, allocs)
			case allocs > 2:
				t.Errorf("%s seed %d: errored probe (%s) allocates %.0f objects, want at most 2", tg.Name, tg.Seed, res.Err, allocs)
			}
		}
		// Bytes, for the log line only: a second walk over the same seeds.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			tg.Seed--
			next()
		}
		runtime.ReadMemStats(&after)
		t.Logf("%-40s %5.1f allocs/probe %6d B/probe, %d of %d errored", tg.Name,
			total/runs, (after.TotalAlloc-before.TotalAlloc)/runs, errored, runs)
	}
}

// TestProbeAllocBudget pins the steady-state probe at zero allocations in
// every catalog cell (the seed's cost was ~930, PR 3 brought it to 77,
// topology pooling to 3 for the single connection test alone, and
// arena-owned results, specs and technique scratch to 0 for all of them). A
// regression here means a fast-path allocation crept back in — an element
// rebuilt instead of reinitialized, a payload literal escaping through an
// interface call, a per-connection struct escaping its pool, a result
// built fresh instead of into the arena's.
func TestProbeAllocBudget(t *testing.T) {
	checkProbeAllocMatrix(t, NewProbeArena, func(a *ProbeArena, res *TargetResult, tg Target) {
		a.ProbeTargetInto(res, tg, 8, 0)
	})
}

// cleanSurvey probes n targets whose records carry no error text — the
// common case of a survey prefix, exclusions of the dual test included,
// where replay should cost no allocation per record.
func cleanSurvey(tb testing.TB, n int) ([]Target, []TargetResult) {
	tb.Helper()
	spec := EnumSpec{Impairments: []string{"clean", "swap-light"}}
	spec.Seeds = n/(len(Profiles())*len(spec.Impairments)*len(Tests)) + 1
	targets, err := Enumerate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	targets = targets[:n]
	results := make([]TargetResult, n)
	arena := NewProbeArena()
	excluded := 0
	for i := range targets {
		if arena.ProbeTargetInto(&results[i], targets[i], 4, 0); results[i].Err != "" {
			tb.Fatalf("survey record %d is not clean: %+v", i, results[i])
		}
		if results[i].DCTExcluded != "" {
			excluded++
		}
	}
	if excluded == 0 {
		tb.Fatal("survey has no excluded dual test to replay")
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

// TestReplayAllocBudget pins replay at a fixed number of allocations — the
// slab, the file and its size, one store for the decoders' blocks and
// scratch, one per decoder goroutine — however many records it reads: zero
// per record, so the same at 1 000 and 16 000 records once the one object
// per decoder is counted out (the longer file may get more decoders), and at
// most 8 + 2·GOMAXPROCS in total. testing.AllocsPerRun would count at
// GOMAXPROCS=1, where the replay decodes inline, so the count is taken at
// the test's own setting.
func TestReplayAllocBudget(t *testing.T) {
	baseT, baseR := cleanSurvey(t, 1000)
	budget := 8 + 2*runtime.GOMAXPROCS(0)
	var perReplay []uint64
	for _, n := range []int{1000, 16000} {
		targets, results := tile(baseT, baseR, n)
		path := writeRecords(t, results)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		decoders := replayDecoders(fi.Size())
		replay := func() {
			got, err := replayOutput(path, targets, n)
			if err != nil || len(got) != n {
				t.Fatalf("replayed %d of %d records: %v", len(got), n, err)
			}
		}
		replay()
		// The fewest of twenty runs. Each replay starts from nothing — a
		// fresh slab, store and file — so an allocation of the replay's own
		// shows in every run; a collection cycle the slab triggers wakes
		// runtime goroutines that allocate a few objects of their own, and
		// starting a goroutine finds the runtime's free list empty now and
		// then, in some runs only.
		allocs := uint64(math.MaxUint64)
		for i := 0; i < 20; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			replay()
			runtime.ReadMemStats(&after)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
		}
		t.Logf("GOMAXPROCS=%d: replaying %d records on %d decoders allocates %d objects",
			runtime.GOMAXPROCS(0), n, decoders, allocs)
		if allocs > uint64(budget) {
			t.Errorf("replaying %d records allocates %d objects, budget %d", n, allocs, budget)
		}
		perReplay = append(perReplay, allocs-uint64(decoders))
	}
	if perReplay[0] != perReplay[1] {
		t.Errorf("replay allocates %d objects besides its decoders for 1 000 records but %d for 16 000",
			perReplay[0], perReplay[1])
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

// TestCampaignSteadyStateAllocs pins what the probe matrix cannot see — span
// batches, emit, aggregator shards, scheduler — as the figure the benchmark
// reports: heap allocations of a whole campaign.Run per target. A mixed
// 4 608-target list (every profile and test; a mechanism config; static, a
// timeline, a middlebox, a frame-corrupting storm) rendered to both sinks
// stays at or
// under one allocation per target at one worker and at four: the per-pass
// constants — arenas, slabs, pools, the summary — and the few targets that
// end with an error string.
func TestCampaignSteadyStateAllocs(t *testing.T) {
	targets, err := Enumerate(EnumSpec{
		Impairments: []string{"clean", "trunk"},
		Scenarios:   []string{"", "rate-ramp", "rst-inject", "corrupt-storm"},
		Seeds:       16,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sum, err := Run(Config{
			Targets: targets, Workers: workers, Retries: 1,
			OutputPath: os.DevNull, CSVPath: os.DevNull,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perTarget := float64(after.Mallocs-before.Mallocs) / float64(len(targets))
		t.Logf("workers=%d: %d targets (%d errors), %.3f allocations per target",
			workers, len(targets), sum.Errors, perTarget)
		if perTarget > 1.0 {
			t.Errorf("workers=%d: a %d-target campaign allocates %.2f objects per target, want at most 1.0",
				workers, len(targets), perTarget)
		}
	}
}
