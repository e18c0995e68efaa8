package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestMechanismSignatures(t *testing.T) {
	rep, err := RunMechanisms(DefaultMechanisms())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Curves) != 3 {
		t.Fatalf("curves = %d", len(rep.Curves))
	}

	trunk, ok := rep.Curve("trunk")
	if !ok {
		t.Fatal("trunk curve missing")
	}
	// Exponential decay: strong at 0, gone by 250µs.
	if trunk.ForwardAt(0) < 0.05 {
		t.Errorf("trunk at 0 = %.4f", trunk.ForwardAt(0))
	}
	if trunk.ForwardAt(250*time.Microsecond) > 0.02 {
		t.Errorf("trunk at 250µs = %.4f, want ≈0", trunk.ForwardAt(250*time.Microsecond))
	}

	mp, ok := rep.Curve("multipath")
	if !ok {
		t.Fatal("multipath curve missing")
	}
	// Step signature: every pair inside the 150µs spread reorders (the
	// second packet takes the faster member), none beyond it.
	if mp.ForwardAt(0) < 0.9 {
		t.Errorf("multipath at 0 = %.4f, want ≈1", mp.ForwardAt(0))
	}
	if mp.ForwardAt(100*time.Microsecond) < 0.9 {
		t.Errorf("multipath at 100µs = %.4f, want ≈1 (inside spread)", mp.ForwardAt(100*time.Microsecond))
	}
	if mp.ForwardAt(250*time.Microsecond) > 0.05 {
		t.Errorf("multipath at 250µs = %.4f, want ≈0 (beyond spread)", mp.ForwardAt(250*time.Microsecond))
	}

	arq, ok := rep.Curve("l2-arq")
	if !ok {
		t.Fatal("l2-arq curve missing")
	}
	// Long flat tail: roughly the frame error rate out to the retransmit
	// delay (2ms), then gone.
	if r := arq.ForwardAt(500 * time.Microsecond); r < 0.04 {
		t.Errorf("arq at 500µs = %.4f, want ≈FER (long tail)", r)
	}
	if r := arq.ForwardAt(4 * time.Millisecond); r > 0.03 {
		t.Errorf("arq at 4ms = %.4f, want ≈0 (beyond recovery window)", r)
	}

	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "E8") {
		t.Error("report text missing header")
	}
}
