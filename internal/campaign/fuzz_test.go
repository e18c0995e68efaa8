package campaign

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// FuzzLoadCheckpoint feeds the checkpoint loader arbitrary bytes: it must
// return an error or a checkpoint with a non-negative count, and a resume
// over whatever it accepted — as loaded, and again with the campaign's own
// fingerprint so the count is what decides — must fail cleanly or succeed,
// never panic or size anything from the file.
func FuzzLoadCheckpoint(f *testing.F) {
	targets, results := mixedCampaign(f)
	fp := Fingerprint(targets, 4)
	jsonl := renderRecords(results)
	for _, done := range []int{0, 1, 40, len(targets), len(targets) + 1, math.MaxInt, -1} {
		data, err := json.Marshal(Checkpoint{Fingerprint: fp, Done: done})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(data, '\n'))
	}
	f.Add([]byte(`{"fingerprint":1,"done":1e3}`))
	f.Add([]byte(`{"done":9223372036854775808}`))
	f.Add([]byte("{"))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "ckpt.json")
		out := filepath.Join(dir, "out.jsonl")
		if err := os.WriteFile(ckpt, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(ckpt)
		if err != nil {
			return
		}
		if ck.Done < 0 {
			t.Fatalf("accepted a negative count: %+v", ck)
		}
		for _, ck := range []Checkpoint{ck, {Fingerprint: fp, Done: ck.Done}} {
			if err := ck.Save(ckpt); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(out, jsonl, 0o644); err != nil {
				t.Fatal(err)
			}
			agg := NewAggregator(1)
			em, err := NewEmitter(Config{
				Targets: targets, Samples: 4, OutputPath: out, CheckpointPath: ckpt, Resume: true,
			}, agg)
			if err != nil {
				continue
			}
			if replayed := agg.Summary().Targets; replayed != ck.Done || em.Start() != ck.Done {
				t.Fatalf("resume of %+v replayed %d, starts at %d", ck, replayed, em.Start())
			}
			if _, err := em.Finish(nil); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzDecodeRecord feeds the replay decoder an arbitrary line for one of
// the campaign's targets: it either refuses the line, or the record it
// returns renders back to exactly the line and is the record encoding/json
// reads from it.
func FuzzDecodeRecord(f *testing.F) {
	targets, results := mixedCampaign(f)
	for i := range results {
		f.Add(results[i].AppendJSON(nil), uint8(i))
	}
	f.Add([]byte(`{"index":0,"attempts":1}`), uint8(0))
	f.Add([]byte(`{"index":-0,"name":"","profile":"","impairment":"","test":"","seed":18446744073709551616}`), uint8(0))
	f.Add([]byte(`{"index":1,"name":"\ud800\/\b"`), uint8(1))

	f.Fuzz(func(t *testing.T, line []byte, which uint8) {
		tg := &targets[int(which)%len(targets)]
		var dec recordDecoder
		var got TargetResult
		if err := dec.decode(line, tg, &got); err != nil {
			return
		}
		if again := got.AppendJSON(nil); !bytes.Equal(again, line) {
			t.Fatalf("accepted %q, which re-renders as %q", line, again)
		}
		var want TargetResult
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("accepted %q, which encoding/json refuses: %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("accepted %q as\n %+v\nencoding/json reads\n %+v", line, got, want)
		}
	})
}

// csvReferenceRow renders r the way the campaign did before appendCSVRow:
// every column formatted to a string and the row handed to encoding/csv.
func csvReferenceRow(tb testing.TB, r *TargetResult, withTopo, withScn bool) []byte {
	tb.Helper()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	row := []string{
		strconv.Itoa(r.Index), r.Name, r.Profile, r.Impairment, r.Test,
		strconv.FormatUint(r.Seed, 10), strconv.Itoa(r.Attempts),
		r.Err, r.DCTExcluded,
		strconv.Itoa(r.FwdValid), strconv.Itoa(r.FwdReordered), g(r.FwdRate),
		strconv.Itoa(r.RevValid), strconv.Itoa(r.RevReordered), g(r.RevRate),
		strconv.FormatBool(r.AnyReordering), strconv.FormatInt(r.RTTMicros, 10),
		g(r.SeqRatio), strconv.Itoa(r.SeqReceived),
		strconv.Itoa(r.SeqMaxExtent), strconv.Itoa(r.SeqNReordering),
		g(r.SeqDupthreshExposure),
	}
	if withTopo {
		row = append(row, r.Topology)
	}
	if withScn {
		row = append(row, r.Scenario)
	}
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(row); err != nil {
		tb.Fatal(err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCSVRow holds appendCSVRow to encoding/csv, the encoder it replaced,
// over arbitrary strings in the free-text columns and arbitrary floats,
// with and without the optional columns.
func FuzzCSVRow(f *testing.F) {
	_, results := mixedCampaign(f)
	for i := range results {
		r := &results[i]
		f.Add(r.Name, r.Err, r.DCTExcluded, r.Topology, r.Scenario,
			r.FwdRate, r.SeqDupthreshExposure, r.RTTMicros, uint8(i))
	}
	for i, s := range []string{
		`\.`, `\.x`, " lead", "\u00a0nbsp", "\u2028sep", "\u0085nel", "\xff\xfe", "\xa0",
		"a,b", `say "hi"`, "cr\rlf\n", `"`, "\t", "trail ", "",
	} {
		f.Add(s, s, "x"+s, s+"x", s, math.NaN(), math.Inf(-1+2*(i%2)), int64(math.MinInt64), uint8(i))
	}
	f.Add("n", "", "", "", "", 5e-324, math.Copysign(0, -1), int64(-1), uint8(3))
	f.Add("n", "", "", "", "", 1e21, 1e-7, int64(1), uint8(2))

	f.Fuzz(func(t *testing.T, name, errText, excluded, topo, scn string, rate, exposure float64, n int64, cols uint8) {
		r := &TargetResult{
			Index: int(n), Name: name, Profile: "freebsd4", Impairment: "clean", Test: "single",
			Seed: uint64(n), Attempts: int(n >> 32), Err: errText, DCTExcluded: excluded,
			FwdValid: int(n), FwdReordered: int(-n), FwdRate: rate,
			RevValid: 8, RevReordered: 1, RevRate: -rate,
			AnyReordering: n&1 == 1, RTTMicros: n,
			SeqRatio: exposure, SeqReceived: int(n), SeqMaxExtent: 3, SeqNReordering: 1,
			SeqDupthreshExposure: rate * exposure, Topology: topo, Scenario: scn,
		}
		withTopo, withScn := cols&1 != 0, cols&2 != 0
		want := csvReferenceRow(t, r, withTopo, withScn)
		pre := []byte("prefix|")
		got := appendCSVRow(pre, r, withTopo, withScn)
		if !bytes.Equal(got[len(pre):], want) || !bytes.HasPrefix(got, pre) {
			t.Fatalf("appendCSVRow:\n %q\nencoding/csv:\n %q", got[len(pre):], want)
		}
	})
}

// FuzzSpanDecode feeds a coordinator's span decoder an arbitrary report for
// a span of the mixed catalog: it refuses it, or it accepted exactly one
// canonical record per target of the span, in index order — the records
// render back to the report byte for byte — and the CSV it appended is
// those records' rows, with the catalog's topology and scenario columns.
// The seeds are a few records: the fuzzer minimizes every input it finds
// interesting, a byte at a time.
func FuzzSpanDecode(f *testing.F) {
	targets, results := mixedCampaign(f)
	em, err := NewEmitter(Config{Targets: targets, Samples: 4, CSVPath: filepath.Join(f.TempDir(), "out.csv")})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { em.Finish(nil) })
	dec := em.SpanDecoder()
	if !dec.csv || !dec.withTopo || !dec.withScn {
		f.Fatal("the mixed catalog's decoder renders no CSV or no optional column")
	}
	f.Add(renderRecords(results[3:7]), uint8(3), uint8(4))
	f.Add(renderRecords(results[3:7]), uint8(4), uint8(4))
	f.Add(renderRecords(results[3:6]), uint8(3), uint8(4))
	f.Add(renderRecords(results[3:8]), uint8(3), uint8(4))
	f.Add(renderRecords(results[3:7])[:50], uint8(3), uint8(1))
	f.Add([]byte(nil), uint8(len(results)), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, lo, n uint8) {
		got := make([]TargetResult, n)
		pre := []byte("prefix|")
		csv, err := dec.Decode(int(lo), data, got, pre)
		if err != nil {
			if !bytes.Equal(csv, pre) {
				t.Fatalf("a refused span appended %q", csv[len(pre):])
			}
			return
		}
		var again, rows []byte
		for i := range got {
			if r := &got[i]; r.Index != int(lo)+i || r.Name != targets[r.Index].Name {
				t.Fatalf("record %d of a span at %d is %d %q", i, lo, r.Index, r.Name)
			}
			again = append(got[i].AppendJSON(again), '\n')
			rows = appendCSVRow(rows, &got[i], true, true)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %q, which re-renders as %q", data, again)
		}
		if !bytes.Equal(csv, append(pre, rows...)) {
			t.Fatalf("rendered CSV %q, want %q", csv[len(pre):], rows)
		}
	})
}
