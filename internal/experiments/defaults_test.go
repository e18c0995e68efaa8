package experiments

import (
	"bytes"
	"io"
	"testing"
)

// TestEmptyListTakesOnlyItsDefault pins that a sweep config's empty list
// field takes its default schedule and nothing else: the run must print the
// same bytes as the same config with the default list written out, so the
// samples, seeds and sizes it was given still apply.
func TestEmptyListTakesOnlyItsDefault(t *testing.T) {
	text := func(rep interface{ WriteText(io.Writer) }, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.WriteText(&buf)
		return buf.Bytes()
	}
	for _, c := range []struct {
		name         string
		empty, given func() []byte
	}{
		{"mechanisms", func() []byte {
			return text(RunMechanisms(GapSweepConfig{SamplesPerPoint: 4, Seed: 9}))
		}, func() []byte {
			return text(RunMechanisms(GapSweepConfig{Gaps: DefaultMechanisms().Gaps, SamplesPerPoint: 4, Seed: 9}))
		}},
		{"cooperative", func() []byte {
			return text(RunCooperative(CooperativeConfig{Samples: 4, Seed: 9}))
		}, func() []byte {
			return text(RunCooperative(CooperativeConfig{SwapProbs: DefaultCooperative().SwapProbs, Samples: 4, Seed: 9}))
		}},
		{"impact", func() []byte {
			return text(RunImpact(ImpactConfig{Bytes: 16 << 10, Repeats: 1, Seed: 9}))
		}, func() []byte {
			return text(RunImpact(ImpactConfig{Jitters: DefaultImpact().Jitters, Bytes: 16 << 10, Repeats: 1, Seed: 9}))
		}},
	} {
		if empty, given := c.empty(), c.given(); !bytes.Equal(empty, given) {
			t.Errorf("%s: empty list printed\n%s\nwant, as with the default list written out,\n%s", c.name, empty, given)
		}
	}
}
