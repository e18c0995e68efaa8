package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestValidationWorkersInvariant(t *testing.T) {
	cfg := DefaultValidation()
	cfg.Workers = 1
	serial := RunValidation(cfg)
	cfg.Workers = 4
	parallel := RunValidation(cfg)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("validation report depends on worker count")
	}
}

func TestCongestionExperiment(t *testing.T) {
	rep, err := RunCongestion(CongestionConfig{
		Topologies: []string{"p2p", "parallel-x2"},
		Replicas:   5,
		Samples:    12,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 2 || len(rep.Groups[0].Cells) != 3 || len(rep.Groups[1].Cells) != 3 {
		t.Fatalf("want 2 topologies x 3 tests, got %+v", rep.Groups)
	}
	// The point-to-point control has no routers, no cross traffic and a
	// clean path: reordering incidence must be zero.
	for _, test := range []string{"single", "dual", "transfer"} {
		c, ok := rep.Cell("", "p2p", test)
		if !ok {
			t.Fatalf("missing p2p/%s cell", test)
		}
		if c.Reordering != 0 {
			t.Errorf("p2p/%s: clean point-to-point path reported %.2f reordering", test, c.Reordering)
		}
	}
	// The shared parallel bundle must show congestion-induced reordering in
	// at least one technique's cells.
	saw := false
	for _, test := range []string{"single", "dual", "transfer"} {
		if c, ok := rep.Cell("", "parallel-x2", test); ok && c.Targets > 0 && c.Reordering > 0 {
			saw = true
		}
	}
	if !saw {
		t.Fatal("no technique observed congestion-induced reordering on parallel-x2")
	}
	if len(rep.Groups[1].Pairs) == 0 {
		t.Fatal("no agreement pairs for parallel-x2")
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	for _, want := range []string{"congestion-induced", "parallel-x2", "agreement"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report text missing %q", want)
		}
	}
}

func TestCongestionDeterministic(t *testing.T) {
	run := func(workers int) *PairedReport {
		rep, err := RunCongestion(CongestionConfig{
			Topologies: []string{"bottleneck"},
			Replicas:   3,
			Samples:    8,
			Workers:    workers,
			Seed:       11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if !reflect.DeepEqual(run(1), run(4)) {
		t.Fatal("congestion report depends on worker count")
	}
}
