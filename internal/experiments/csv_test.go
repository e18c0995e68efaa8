package experiments

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
	"time"

	"reorder/internal/core"
)

// parseCSV reads back what a writer emitted, verifying well-formedness.
func parseCSV(t *testing.T, b []byte) [][]string {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV unparseable: %v", err)
	}
	return rows
}

func TestGapSweepCSV(t *testing.T) {
	rep := &GapSweepReport{core.GapDistribution{Points: []core.GapRate{
		{Gap: 0, Forward: 0.14, Valid: 100},
		{Gap: 50 * time.Microsecond, Forward: 0.01, Valid: 100},
	}}}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.Bytes())
	if len(rows) != 3 || rows[0][0] != "gap_us" {
		t.Fatalf("rows = %v", rows)
	}
	if rows[2][0] != "50" {
		t.Fatalf("gap_us = %q, want 50", rows[2][0])
	}
	if v, err := strconv.ParseFloat(rows[1][1], 64); err != nil || v != 0.14 {
		t.Fatalf("rate = %q", rows[1][1])
	}
}

func TestTimeSeriesCSV(t *testing.T) {
	rep := &TimeSeriesReport{Points: []TimeSeriesPoint{
		{At: 2 * time.Second, TrueRate: 0.1, SCT: 0.09, SYN: 0.11},
	}}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.Bytes())
	if len(rows) != 2 || rows[1][0] != "2" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestMechanismsCSVLongForm(t *testing.T) {
	rep := &MechanismsReport{Curves: []MechanismCurve{
		{"trunk", core.GapDistribution{Points: []core.GapRate{{Gap: 0, Forward: 0.1}}}},
		{"l2-arq", core.GapDistribution{Points: []core.GapRate{{Gap: 0, Forward: 0.09}}}},
	}}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.Bytes())
	if len(rows) != 3 || rows[1][0] != "trunk" || rows[2][0] != "l2-arq" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSurveyAndValidationCSV(t *testing.T) {
	survey := RunSurvey(DefaultSurvey())
	var buf bytes.Buffer
	if err := survey.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.Bytes())
	if len(rows) < 2 || rows[0][1] != "cdf" {
		t.Fatalf("survey CSV header: %v", rows[0])
	}
	// CDF values must be nondecreasing and end at 1.
	prev := 0.0
	for _, r := range rows[1:] {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil || v < prev {
			t.Fatalf("CDF column broken at %v", r)
		}
		prev = v
	}
	if prev != 1 {
		t.Fatalf("CDF ends at %v", prev)
	}

	val := RunValidation(DefaultValidation())
	buf.Reset()
	if err := val.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, buf.Bytes())
	if len(rows) != len(val.Runs)+1 {
		t.Fatalf("validation CSV rows = %d, want %d", len(rows), len(val.Runs)+1)
	}
}
