package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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

// TestReplayMatchesUnmarshal holds the sequential decoder to the reflective
// one it replaced: over a full mixed campaign the replayed slab equals
// json.Unmarshal of the same lines, field for field.
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

	got, err := replayOutput(writeRecords(t, results), targets, len(targets))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(renderRecords(results), []byte("\n")), []byte("\n"))
	if len(got) != len(lines) {
		t.Fatalf("replayed %d of %d records", len(got), len(lines))
	}
	for i, line := range lines {
		var want TargetResult
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("record %d:\n decoder:        %+v\n json.Unmarshal: %+v", i, got[i], want)
		}
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
			_, err := replayOutput(path, list, len(list))
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
	for _, why := range []string{dctExcludedZeroIPID, dctExcludedNonMonotonic, "zero-ipid-v2", "zero", `quoted "why"`, ""} {
		want := TargetResult{Name: tg.Name, Profile: tg.Profile, Impairment: tg.Impairment, Test: tg.Test,
			Attempts: 1, DCTExcluded: why}
		var got TargetResult
		if err := dec.decode(want.AppendJSON(nil), &tg, &got); err != nil || got != want {
			t.Fatalf("dct_excluded %q replayed as %+v, %v", why, got, err)
		}
	}
	bad := (&TargetResult{Name: tg.Name, Profile: tg.Profile, Impairment: tg.Impairment, Test: tg.Test,
		Attempts: 1, DCTExcluded: dctExcludedZeroIPID}).AppendJSON(nil)
	bad = bytes.Replace(bad, []byte(`"zero-ipid"`), []byte(`"zero-ipid",`), 1)
	var got TargetResult
	if err := dec.decode(bad, &tg, &got); err != errNotCanonical {
		t.Fatalf("decode(%s) = %v, want %v", bad, err, errNotCanonical)
	}
}

func jsonString(s string) string { return string(appendJSONString(nil, s)) }

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
