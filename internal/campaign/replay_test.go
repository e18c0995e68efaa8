package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"reorder/internal/canonjson"
	"reorder/internal/ipid"
)

// mixedCampaign probes a 64-target list that covers every shape a record takes:
// point-to-point, routed-topology and scenario targets, rst-inject's Err
// records and the zero-IPID DCT exclusions. It returns the targets and
// their records, in index order.
func mixedCampaign(tb testing.TB) ([]Target, []TargetResult) {
	tb.Helper()
	var targets []Target
	for _, spec := range []EnumSpec{
		smallSpec(),
		{Profiles: []string{"freebsd4"}, Impairments: []string{"clean"}, BaseSeed: 7,
			Topologies: []string{"diamond", "multihop"}},
		{Profiles: []string{"freebsd4"}, Impairments: []string{"swap-heavy"}, BaseSeed: 9,
			Scenarios: []string{"route-flap", "loss-burst"}},
		// Forged resets fail a few of these outright: the Err records.
		{Profiles: []string{"freebsd4", "linux22", "solaris8"}, Impairments: []string{"multipath", "jitter"},
			Tests: []string{"dual", "transfer"}, Seeds: 2, Scenarios: []string{"rst-inject"}},
	} {
		part, err := Enumerate(spec)
		if err != nil {
			tb.Fatal(err)
		}
		targets = append(targets, part...)
	}
	results := make([]TargetResult, len(targets))
	arena := NewProbeArena()
	for i := range targets {
		targets[i].Index = i
		arena.ProbeTargetInto(&results[i], targets[i], 4, 0)
	}
	return targets, results
}

// renderRecords renders the records as the JSONL sink does: one
// newline-terminated AppendJSON line each.
func renderRecords(results []TargetResult) []byte {
	var out []byte
	for i := range results {
		out = append(results[i].AppendJSON(out), '\n')
	}
	return out
}

// writeRecords writes the rendered records to a fresh file and returns its
// path.
func writeRecords(tb testing.TB, results []TargetResult) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "out.jsonl")
	if err := os.WriteFile(path, renderRecords(results), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// renderCSV renders results as the CSV sink of a run over targets writes
// them: the header, then one row each.
func renderCSV(targets []Target, results []TargetResult) []byte {
	var buf bytes.Buffer
	cs := NewCSVSink(&buf, hasTopology(targets), hasScenario(targets))
	for i := range results {
		cs.EmitBatch(appendCSVRow(nil, &results[i], cs.withTopo, cs.withScn))
	}
	cs.Flush()
	return buf.Bytes()
}

// replayFile replays the first done records of the JSONL file at path as a
// resume does, with a CSV sink beside it, and returns the CSV it wrote.
func replayFile(tb testing.TB, path string, targets []Target, done int) ([]byte, error) {
	tb.Helper()
	cfg := Config{Targets: targets, OutputPath: path, CSVPath: path + ".csv"}
	sinks, err := replayOutput(cfg, done, NewAggregator(runtime.GOMAXPROCS(0)))
	if err != nil {
		return nil, err
	}
	if err := sinks.close(); err != nil {
		tb.Fatal(err)
	}
	csv, err := os.ReadFile(cfg.CSVPath)
	if err != nil {
		tb.Fatal(err)
	}
	return csv, nil
}

// TestReplayMatchesUnmarshal holds the sequential decoder to the reflective
// one it replaced: over a full mixed campaign the replay's decode loop
// reads json.Unmarshal's records from the same lines, field for field, and
// the replay writes their CSV.
func TestReplayMatchesUnmarshal(t *testing.T) {
	targets, results := mixedCampaign(t)
	var errs, excluded, topo, scn int
	for i := range results {
		r := &results[i]
		if r.Err != "" {
			errs++
		}
		if r.DCTExcluded != "" {
			excluded++
		}
		if r.Topology != "" {
			topo++
		}
		if r.Scenario != "" {
			scn++
		}
	}
	if errs == 0 || excluded == 0 || topo == 0 || scn == 0 {
		t.Fatalf("campaign is not mixed: %d errors, %d exclusions, %d topology, %d scenario records",
			errs, excluded, topo, scn)
	}

	got := make([]TargetResult, len(targets))
	if n, err := decodeLines(&recordDecoder{}, renderRecords(results), targets, got, 0); err != nil || n != len(got) {
		t.Fatalf("decoded %d of %d records: %v", n, len(got), err)
	}
	lines := bytes.Split(bytes.TrimSuffix(renderRecords(results), []byte("\n")), []byte("\n"))
	want := make([]TargetResult, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &want[i]); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d:\n decoder:        %+v\n json.Unmarshal: %+v", i, got[i], want[i])
		}
	}
	csv, err := replayFile(t, writeRecords(t, results), targets, len(targets))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv, renderCSV(targets, want)) {
		t.Fatal("the replay's CSV differs from json.Unmarshal's records' rows")
	}
}

// TestReplayRefusals: a record this build would not have written, or one
// that belongs to another target, fails the resume by record index.
func TestReplayRefusals(t *testing.T) {
	targets, results := mixedCampaign(t)
	const at = 5
	good := string(results[at].AppendJSON(nil))
	edit := func(old, new string) string {
		if !strings.Contains(good, old) {
			t.Fatalf("record %s has no %s to edit", good, old)
		}
		return strings.Replace(good, old, new, 1)
	}
	other := targets[at]
	other.Profile = "linux22"

	for _, tc := range []struct {
		name, line string
		target     Target
		wantErr    error
	}{
		{"reordered keys", edit(`"index":5,"name":`+jsonString(targets[at].Name), `"name":`+jsonString(targets[at].Name)+`,"index":5`), targets[at], errNotCanonical},
		{"space after colon", edit(`"attempts":1`, `"attempts": 1`), targets[at], errNotCanonical},
		{"unknown key", edit(`}`, `,"extra":1}`), targets[at], errNotCanonical},
		{"non-shortest float", edit(`"rev_rate":0`, `"rev_rate":0.0`), targets[at], errNotCanonical},
		{"empty omitempty field", edit(`,"fwd_valid"`, `,"error":"","fwd_valid"`), targets[at], errNotCanonical},
		{"escape the encoder never writes", edit(`"attempts":1`, `"attempts":1,"error":"\u0041"`), targets[at], errNotCanonical},
		{"trailing bytes", good + " ", targets[at], errNotCanonical},
		{"wrong profile for the target", good, other, errWrongTarget},
		{"index is not the position", edit(`"index":5`, `"index":6`), targets[at], nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Decoder first, so the reason is pinned and not only the refusal.
			var dec recordDecoder
			var r TargetResult
			if err := dec.decode([]byte(tc.line), &tc.target, &r); err != tc.wantErr {
				t.Fatalf("decode(%s) = %v, want %v", tc.line, err, tc.wantErr)
			}

			list := append([]Target(nil), targets...)
			list[at] = tc.target
			data := bytes.Replace(renderRecords(results), []byte(good+"\n"), []byte(tc.line+"\n"), 1)
			path := filepath.Join(t.TempDir(), "out.jsonl")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := replayFile(t, path, list, len(list))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record %d ", at)) {
				t.Fatalf("refusal does not name record %d: %v", at, err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, data) {
				t.Fatal("a refused replay modified the output file")
			}
		})
	}
}

// TestReplayForeignExclusion: dct_excluded takes the build's two constants
// without allocating, and a canonical record carrying any other value — one
// a different build wrote — still replays to exactly that value.
func TestReplayForeignExclusion(t *testing.T) {
	tg := Target{Name: "n", Profile: "linux24", Impairment: "clean", Test: "dual"}
	var dec recordDecoder
	for _, why := range []string{ipid.ReasonZero, ipid.ReasonNonMonotonic, "zero-ipid-v2", "zero", `quoted "why"`, ""} {
		want := TargetResult{Name: tg.Name, Profile: tg.Profile, Impairment: tg.Impairment, Test: tg.Test,
			Attempts: 1, DCTExcluded: why}
		var got TargetResult
		if err := dec.decode(want.AppendJSON(nil), &tg, &got); err != nil || got != want {
			t.Fatalf("dct_excluded %q replayed as %+v, %v", why, got, err)
		}
	}
	bad := (&TargetResult{Name: tg.Name, Profile: tg.Profile, Impairment: tg.Impairment, Test: tg.Test,
		Attempts: 1, DCTExcluded: ipid.ReasonZero}).AppendJSON(nil)
	bad = bytes.Replace(bad, []byte(`"zero-ipid"`), []byte(`"zero-ipid",`), 1)
	var got TargetResult
	if err := dec.decode(bad, &tg, &got); err != errNotCanonical {
		t.Fatalf("decode(%s) = %v, want %v", bad, err, errNotCanonical)
	}
}

func jsonString(s string) string { return string(canonjson.AppendString(nil, s)) }

// TestReplayInvalidUTF8Refused pins the one record AppendJSON writes and
// replay refuses: \ufffd stands for any invalid byte, so no decoded string
// renders back to the line.
func TestReplayInvalidUTF8Refused(t *testing.T) {
	tg := Target{Name: "bad\xffname", Test: "single"}
	r := TargetResult{Name: tg.Name, Test: tg.Test, Attempts: 1}
	var dec recordDecoder
	var got TargetResult
	// In an identity field the target's own string is compared and kept.
	if err := dec.decode(r.AppendJSON(nil), &tg, &got); err != nil || got.Name != tg.Name {
		t.Fatalf("invalid UTF-8 in an identity field: %v, name %q", err, got.Name)
	}
	r.Err = "boom \xff"
	if err := dec.decode(r.AppendJSON(nil), &tg, &got); err != errNotCanonical {
		t.Fatalf("invalid UTF-8 in error: got %v, want %v", err, errNotCanonical)
	}
}

// sequentialReplay is the replay loop the parallel pipeline replaced, kept
// as its oracle: one bufio.Reader, a spill buffer for lines longer than it,
// one decoder, the first failing record's error.
func sequentialReplay(src io.Reader, name string, targets []Target, done int) ([]TargetResult, int64, error) {
	results := make([]TargetResult, done)
	n := 0
	var offset int64
	br := bufio.NewReaderSize(src, 64*1024)
	var spill []byte
	dec := recordDecoder{scratch: make([]byte, 0, 1024)}
	for n < done {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			spill = append(spill[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				spill = append(spill, line...)
			}
			line = spill
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("campaign: %s record %d: %w", name, n, err)
		}
		r := &results[n]
		if err := dec.decode(line[:len(line)-1], &targets[n], r); err != nil {
			return nil, 0, fmt.Errorf("campaign: %s record %d %w", name, n, err)
		}
		if r.Index != n {
			return nil, 0, fmt.Errorf("campaign: %s record %d has index %d; output does not match checkpoint",
				name, n, r.Index)
		}
		n++
		offset += int64(len(line))
	}
	if n < done {
		return nil, 0, fmt.Errorf("campaign: %s has %d records but checkpoint says %d emitted",
			name, n, done)
	}
	return results, offset, nil
}

// tiledCampaign repeats mixedCampaign's targets and records to n of each:
// a prefix of every record shape long enough to span many replay blocks
// and ranges, for the cost of 64 probes.
func tiledCampaign(tb testing.TB, n int) ([]Target, []TargetResult) {
	tb.Helper()
	targets, results := mixedCampaign(tb)
	return tile(targets, results, n)
}

// tile repeats a campaign's targets and records, renumbered, to n of each.
func tile(baseT []Target, baseR []TargetResult, n int) ([]Target, []TargetResult) {
	targets := make([]Target, n)
	results := make([]TargetResult, n)
	for i := range targets {
		targets[i], results[i] = baseT[i%len(baseT)], baseR[i%len(baseR)]
		targets[i].Index, results[i].Index = i, i
	}
	return targets, results
}

// replayOutcome is everything a replay gives: the records' CSV rows with
// every optional column (so every field of every record), their summary,
// their length, and errors as text.
type replayOutcome struct {
	csv    []byte
	sum    *Summary
	offset int64
	err    string
}

// checkReplayMatches replays data through the parallel pipeline at several
// block sizes and decoder counts and holds each to the sequential loop.
func checkReplayMatches(t *testing.T, data []byte, targets []Target, done int, blocks []int) {
	t.Helper()
	var want replayOutcome
	results, offset, err := sequentialReplay(bytes.NewReader(data), "out.jsonl", targets, done)
	if err != nil {
		want.err = err.Error()
	} else {
		var csv bytes.Buffer
		cs := NewCSVSink(&csv, true, true)
		agg := NewAggregator(1)
		for i := range results {
			cs.EmitBatch(appendCSVRow(nil, &results[i], true, true))
			agg.Shard(0).Add(&results[i])
		}
		cs.Flush()
		want = replayOutcome{csv: csv.Bytes(), sum: agg.Summary(), offset: offset}
	}
	for _, block := range blocks {
		for decoders := 1; decoders <= 4; decoders++ {
			var csv bytes.Buffer
			cs := NewCSVSink(&csv, true, true)
			agg := NewAggregator(decoders)
			var got replayOutcome
			if offset, err := replayRecords(bytes.NewReader(data), "out.jsonl", targets, done, block, decoders, agg, cs); err != nil {
				got.err = err.Error()
			} else {
				cs.Flush()
				got = replayOutcome{csv: csv.Bytes(), sum: agg.Summary(), offset: offset}
			}
			if got.err != want.err || got.offset != want.offset || !bytes.Equal(got.csv, want.csv) ||
				!reflect.DeepEqual(got.sum, want.sum) {
				t.Fatalf("block %d, %d decoders: replay returned (%d CSV bytes, length %d, %q), the sequential loop (%d, %d, %q)",
					block, decoders, len(got.csv), got.offset, got.err, len(want.csv), want.offset, want.err)
			}
		}
	}
}

// TestReplayDecoders: however many cores there are, a prefix shorter than
// two blocks gets one decoder, which runs inline, and a longer one one per
// whole block up to GOMAXPROCS.
func TestReplayDecoders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(64))
	for _, tc := range []struct {
		size int64
		want int
	}{
		{0, 1}, {300, 1}, {2*replayBlockBytes - 1, 1}, {2 * replayBlockBytes, 2},
		{10*replayBlockBytes + 5, 10}, {1 << 30, 64},
	} {
		if got := replayDecoders(tc.size); got != tc.want {
			t.Errorf("replayDecoders(%d) at GOMAXPROCS=64 = %d, want %d", tc.size, got, tc.want)
		}
	}
}

// TestReplayCorruptionsMatchSequential: wherever a prefix is damaged — at
// either end of a block, in two blocks, in a record longer than a block,
// short, or cut mid-record — the parallel replay fails with the sequential
// loop's exact error (or succeeds with its results and length).
func TestReplayCorruptionsMatchSequential(t *testing.T) {
	const n, block = 400, 1024
	targets, results := tiledCampaign(t, n)
	long := 10 * block
	targets[200].Name = strings.Repeat("l", long)
	results[200].Name = targets[200].Name
	data := renderRecords(results)
	lineStart := func(i int) int {
		at := 0
		for ; i > 0; i-- {
			at += bytes.IndexByte(data[at:], '\n') + 1
		}
		return at
	}
	// A first block holds the whole lines in its first size bytes.
	firstBlockLines := func(size int) int {
		return bytes.Count(data[:bytes.LastIndexByte(data[:size], '\n')+1], []byte{'\n'})
	}
	edge, bigEdge := firstBlockLines(block), firstBlockLines(64<<10)
	// breakRecord makes record i non-canonical: a space after its first colon.
	breakRecord := func(d []byte, i int) []byte {
		at := lineStart(i) + len(`{"index":`)
		return append(append(append([]byte(nil), d[:at]...), ' '), d[at:]...)
	}
	for _, tc := range []struct {
		name string
		data []byte
		done int
	}{
		{"intact", data, n},
		{"intact, fewer acknowledged", data, n - 7},
		{"last record of a block", breakRecord(data, edge-1), n},
		{"first record of a block", breakRecord(data, edge), n},
		// The second block's decoder meets its bad record first, hundreds
		// of records before the first block's does.
		{"last record of a block and first of the next", breakRecord(breakRecord(data, bigEdge), bigEdge-1), n},
		{"two bad records in different blocks", breakRecord(breakRecord(data, 300), 40), n},
		{"a bad record longer than a block", breakRecord(data, 200), n},
		{"bad records on both sides of a long one", breakRecord(breakRecord(data, 350), 201), n},
		{"wrong index", bytes.Replace(data, []byte(`{"index":123,`), []byte(`{"index":124,`), 1), n},
		{"short file", data[:lineStart(n-3)], n},
		{"unterminated tail, acknowledged", data[:len(data)-5], n},
		{"unterminated tail, not acknowledged", data[:len(data)-5], n - 1},
		{"cut inside the long record", data[:lineStart(200)+long/2], n},
		{"empty", nil, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkReplayMatches(t, tc.data, targets, tc.done, []int{1, 100, block, 64 << 10})
		})
	}
}

// TestReplayParallelMatchesSequential resumes one mixed prefix at
// GOMAXPROCS 1, 2, 4 and 7: the rebuilt CSV (every field of every record:
// the list has topology and scenario targets), the summary and the
// truncated JSONL are the same at every setting and equal what the
// sequential loop and a sequential CSV render and fold give.
func TestReplayParallelMatchesSequential(t *testing.T) {
	const n, done = 5000, 4900
	targets, results := tiledCampaign(t, n)
	data := append(renderRecords(results), `{"index":5000,"na`...)
	fp := Fingerprint(targets, 4)

	wantRes, wantLen, err := sequentialReplay(bytes.NewReader(data), "out.jsonl", targets, done)
	if err != nil {
		t.Fatal(err)
	}
	withTopo, withScn := hasTopology(targets), hasScenario(targets)
	var csvWant bytes.Buffer
	cs := NewCSVSink(&csvWant, withTopo, withScn)
	for i := range wantRes {
		if err := cs.EmitBatch(appendCSVRow(nil, &wantRes[i], withTopo, withScn)); err != nil {
			t.Fatal(err)
		}
	}
	cs.Flush()
	seqAgg := NewAggregator(1)
	for i := range wantRes {
		seqAgg.Shard(0).Add(&wantRes[i])
	}
	var sumWant bytes.Buffer
	seqAgg.Summary().WriteText(&sumWant)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		dir := t.TempDir()
		cfg := Config{
			Targets: targets, Samples: 4, Resume: true,
			OutputPath: filepath.Join(dir, "out.jsonl"), CSVPath: filepath.Join(dir, "out.csv"),
			CheckpointPath: filepath.Join(dir, "ckpt"),
		}
		if err := os.WriteFile(cfg.OutputPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := (Checkpoint{Fingerprint: fp, Done: done}).Save(cfg.CheckpointPath); err != nil {
			t.Fatal(err)
		}
		agg := NewAggregator(4)
		em, err := NewEmitter(cfg, agg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := em.Finish(nil); err != nil {
			t.Fatal(err)
		}
		var sum bytes.Buffer
		agg.Summary().WriteText(&sum)
		csvGot, err := os.ReadFile(cfg.CSVPath)
		if err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(cfg.OutputPath)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !bytes.Equal(csvGot, csvWant.Bytes()):
			t.Fatalf("GOMAXPROCS=%d: rebuilt CSV differs from the sequential render", procs)
		case sum.String() != sumWant.String():
			t.Fatalf("GOMAXPROCS=%d: summary differs:\n%s\nsequential:\n%s", procs, sum.String(), sumWant.String())
		case info.Size() != wantLen:
			t.Fatalf("GOMAXPROCS=%d: JSONL truncated to %d bytes, the sequential loop to %d", procs, info.Size(), wantLen)
		}
	}
}

// TestRefusedResumeKeepsCSV: a resume refused by the replay writes
// nothing — the JSONL, the CSV and the checkpoint stay byte for byte as
// they were, and the CSV the replay was writing, <csv>.tmp, is gone.
func TestRefusedResumeKeepsCSV(t *testing.T) {
	targets, results := tiledCampaign(t, 2000)
	dir := t.TempDir()
	cfg := Config{
		Targets: targets, Samples: 4, Resume: true,
		OutputPath: filepath.Join(dir, "out.jsonl"), CSVPath: filepath.Join(dir, "out.csv"),
		CheckpointPath: filepath.Join(dir, "ckpt"),
	}
	data := bytes.Replace(renderRecords(results), []byte(`{"index":1500,`), []byte(`{"index":1501,`), 1)
	if err := os.WriteFile(cfg.OutputPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	csvBefore := []byte("the CSV of the interrupted run\n")
	if err := os.WriteFile(cfg.CSVPath, csvBefore, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := (Checkpoint{Fingerprint: Fingerprint(targets, 4), Done: len(targets)}).Save(cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	ckBefore, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEmitter(cfg, NewAggregator(4)); err == nil || !strings.Contains(err.Error(), "record 1500 has index 1501") {
		t.Fatalf("resume over a misnumbered record: %v", err)
	}
	for path, want := range map[string][]byte{cfg.OutputPath: data, cfg.CSVPath: csvBefore, cfg.CheckpointPath: ckBefore} {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("a refused resume changed %s (%v)", path, err)
		}
	}
	if _, err := os.Stat(cfg.CSVPath + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("a refused resume left %s.tmp behind (%v)", cfg.CSVPath, err)
	}
}

// TestResumeKeepsCSVLinksAndDevices: a resume renders the CSV through a
// temp renamed over the file the CSV path names. Through a symlink it
// replaces the file linked to and the link stays; a device is written in
// place, never replaced (the device is only asked about here, not
// written).
func TestResumeKeepsCSVLinksAndDevices(t *testing.T) {
	if target, tmp := csvTarget(os.DevNull); target != os.DevNull || tmp != os.DevNull {
		t.Fatalf("csvTarget(%s) = %q, %q: a device must be written in place", os.DevNull, target, tmp)
	}
	targets, results := tiledCampaign(t, 100)
	dir, elsewhere := t.TempDir(), t.TempDir()
	real := filepath.Join(elsewhere, "real.csv")
	cfg := Config{
		Targets: targets, Samples: 4, Resume: true,
		OutputPath: filepath.Join(dir, "out.jsonl"), CSVPath: filepath.Join(dir, "out.csv"),
		CheckpointPath: filepath.Join(dir, "ckpt"),
	}
	if err := os.WriteFile(cfg.OutputPath, renderRecords(results), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(real, []byte("the CSV of the interrupted run\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(real, cfg.CSVPath); err != nil {
		t.Skip("no symlinks here:", err)
	}
	if err := (Checkpoint{Fingerprint: Fingerprint(targets, 4), Done: len(targets)}).Save(cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	em, err := NewEmitter(cfg, NewAggregator(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(cfg.CSVPath); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("the resume replaced the CSV's symlink (%v)", err)
	}
	if got, err := os.ReadFile(real); err != nil || !bytes.Equal(got, renderCSV(targets, results)) {
		t.Fatalf("the linked CSV does not hold the replayed rows (%v)", err)
	}
	for _, tmp := range []string{real + ".tmp", cfg.CSVPath + ".tmp"} {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("the resume left %s behind (%v)", tmp, err)
		}
	}
}

// FuzzReplayPrefix holds the parallel replay to the sequential loop over
// damaged prefixes — flipped bytes, cut lines, long lines — at any block
// size and one to four decoders: the same records, error text and
// truncated length. The seeds are a dozen records: the fuzzer minimizes
// every input it finds interesting, a byte at a time.
func FuzzReplayPrefix(f *testing.F) {
	targets, results := tiledCampaign(f, 12)
	data := renderRecords(results)
	f.Add(data, uint8(12), uint16(300))
	f.Add(data[:len(data)-40], uint8(12), uint16(1000))
	f.Add(data[:len(data)-40], uint8(11), uint16(64))
	f.Add(bytes.Replace(data, []byte(`"attempts":1`), []byte(`"attempts":2`), 1), uint8(6), uint16(100))
	f.Add(bytes.Replace(data, []byte("\n"), []byte(","), 2), uint8(12), uint16(200))
	long := append(append(append([]byte(nil), data[:1000]...), bytes.Repeat([]byte("x"), 1500)...), data[1000:]...)
	f.Add(long, uint8(12), uint16(700))
	f.Fuzz(func(t *testing.T, data []byte, done uint8, block uint16) {
		checkReplayMatches(t, data, targets, 1+int(done)%len(targets), []int{16 + int(block)%1024})
	})
}

// TestSpanDecoder: a span's records decode to the results they were
// rendered from, with their CSV rows and the catalog's optional columns,
// and a span past the target list is refused before anything is decoded.
// TestHostileReportCostsItsConnection (dist) drives the refusals a
// worker's report can reach.
func TestSpanDecoder(t *testing.T) {
	targets, results := mixedCampaign(t)
	em, err := NewEmitter(Config{Targets: targets, Samples: 4, CSVPath: filepath.Join(t.TempDir(), "out.csv")})
	if err != nil {
		t.Fatal(err)
	}
	defer em.Finish(nil)
	dec := em.SpanDecoder()

	lo, hi := 5, len(results)
	got := make([]TargetResult, hi-lo)
	csv, err := dec.Decode(lo, renderRecords(results[lo:hi]), got, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, results[lo:hi]) {
		t.Error("decoded span differs from the results it was rendered from")
	}
	var rows []byte
	for i := lo; i < hi; i++ {
		rows = appendCSVRow(rows, &results[i], true, true)
	}
	if !bytes.Equal(csv, rows) {
		t.Errorf("span CSV:\n%s\nwant:\n%s", csv, rows)
	}

	_, err = dec.Decode(hi-2, renderRecords(results[hi-2:hi]), make([]TargetResult, 4), nil)
	if want := fmt.Sprintf("span [%d,%d) outside the %d targets", hi-2, hi+2, hi); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("span past the targets: got %v, want an error saying %q", err, want)
	}
}
