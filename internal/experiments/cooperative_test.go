package experiments

import (
	"strings"
	"testing"
)

func TestCooperativeAgreement(t *testing.T) {
	rep, err := RunCooperative(DefaultCooperative())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 7 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Clean path: both methodologies read zero.
	if rep.Rows[0].DCTRate != 0 || rep.Rows[0].IPPMRate != 0 {
		t.Fatalf("clean row: %+v", rep.Rows[0])
	}
	// Rates grow with intensity under both methodologies.
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i].DCTRate <= rep.Rows[i-1].DCTRate {
			t.Errorf("DCT rate not increasing at row %d: %+v", i, rep.Rows)
		}
		if rep.Rows[i].IPPMRate <= rep.Rows[i-1].IPPMRate {
			t.Errorf("IPPM rate not increasing at row %d: %+v", i, rep.Rows)
		}
	}
	// The single-ended technique must track the cooperative ground truth
	// (binomial noise at n=400 allows some slack).
	if d := rep.MaxDisagreement(); d > 0.12 {
		t.Fatalf("max disagreement %.4f, want <= 0.12", d)
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "E10") {
		t.Error("report text missing header")
	}
}
