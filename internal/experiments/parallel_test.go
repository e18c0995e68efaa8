package experiments

import (
	"bytes"
	"testing"
)

// TestGapSweepWorkerCountInvariant pins the port of RunGapSweep onto the
// campaign span scheduler: every point's simnet and prober derive from the
// point index alone, so the rendered report must be byte-identical at any
// worker count.
func TestGapSweepWorkerCountInvariant(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 4, 16} {
		cfg := DefaultGapSweep()
		cfg.Workers = workers
		rep, err := RunGapSweep(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		rep.WriteText(&buf)
		if ref == nil {
			ref = buf.Bytes()
		} else if !bytes.Equal(ref, buf.Bytes()) {
			t.Errorf("workers=%d: gap sweep report differs from workers=1", workers)
		}
	}
}

// TestMechanismsWorkerCountInvariant is the same pin for the E8 mechanism
// comparison: mechanism×gap cells are hermetic, so parallelizing the grid
// must not change a byte of the report.
func TestMechanismsWorkerCountInvariant(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 7} {
		cfg := DefaultMechanisms()
		cfg.Workers = workers
		rep, err := RunMechanisms(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		rep.WriteText(&buf)
		if ref == nil {
			ref = buf.Bytes()
		} else if !bytes.Equal(ref, buf.Bytes()) {
			t.Errorf("workers=%d: mechanisms report differs from workers=1", workers)
		}
	}
}
