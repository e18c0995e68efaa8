package experiments

import (
	"reflect"
	"testing"
)

// pinnedCell and pinnedPair are one expected table row each, keyed by
// (scenario, topology, test) and (scenario, topology, a, b, direction) so
// the pins hold whatever order the report lists them in.
type pinnedCell struct {
	scenario, topology, test   string
	targets, excluded, errored int
	reordering, fwd, rev       float64
}

type pinnedPair struct {
	scenario, topology, a, b, dir string
	series, nullOK                int
}

func checkPinned(t *testing.T, rep *PairedReport, cells []pinnedCell, pairs []pinnedPair) {
	t.Helper()
	nCells, nPairs := 0, 0
	for _, g := range rep.Groups {
		nCells += len(g.Cells)
		nPairs += len(g.Pairs)
	}
	if nCells != len(cells) || nPairs != len(pairs) {
		t.Errorf("report has %d cells and %d pairs, want %d and %d", nCells, nPairs, len(cells), len(pairs))
	}
	for _, w := range cells {
		c, ok := rep.Cell(w.scenario, w.topology, w.test)
		got := pinnedCell{w.scenario, w.topology, w.test, c.Targets, c.Excluded, c.Errored, c.Reordering, c.MeanFwdRate, c.MeanRevRate}
		if !ok || got != w {
			t.Errorf("cell %+v, want %+v", got, w)
		}
	}
	for _, w := range pairs {
		found := false
		for _, g := range rep.Groups {
			if g.Scenario != w.scenario || g.Topology != w.topology {
				continue
			}
			for _, p := range g.Pairs {
				if p.TestA == w.a && p.TestB == w.b && p.Direction == w.dir {
					found = true
					if p.Hosts != w.series || p.NullOK != w.nullOK {
						t.Errorf("pair %+v: series %d null-ok %d", w, p.Hosts, p.NullOK)
					}
				}
			}
		}
		if !found {
			t.Errorf("pair %+v missing", w)
		}
	}
}

// TestCongestionPinned holds a fixed-seed congestion run to the numbers
// the per-experiment implementation produced at commit fd31ffa, with the
// dual rows re-pinned once the dual test validated its IPID stream only
// on the pair it measures with.
func TestCongestionPinned(t *testing.T) {
	rep, err := RunCongestion(CongestionConfig{Topologies: []string{"p2p", "parallel-x2"}, Replicas: 5, Samples: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []pinnedPair
	for _, topo := range []string{"p2p", "parallel-x2"} {
		pairs = append(pairs,
			pinnedPair{"", topo, "single", "dual", "forward", 1, 1},
			pinnedPair{"", topo, "single", "dual", "reverse", 1, 1},
			pinnedPair{"", topo, "single", "transfer", "reverse", 1, 1},
			pinnedPair{"", topo, "dual", "transfer", "reverse", 1, 1},
		)
	}
	checkPinned(t, rep, []pinnedCell{
		{"", "p2p", "single", 5, 0, 0, 0, 0, 0},
		{"", "p2p", "dual", 5, 0, 0, 0, 0, 0},
		{"", "p2p", "transfer", 5, 0, 0, 0, 0, 0},
		{"", "parallel-x2", "single", 5, 0, 0, 1, 0.11666666666666665, 0},
		{"", "parallel-x2", "dual", 5, 0, 0, 0.4, 0.03333333333333333, 0},
		{"", "parallel-x2", "transfer", 5, 0, 0, 0, 0, 0},
	}, pairs)
}

// TestChaosPinned is TestCongestionPinned for the chaos experiment, and
// checks the report does not depend on the worker count.
func TestChaosPinned(t *testing.T) {
	run := func(workers int) *PairedReport {
		rep, err := RunChaos(ChaosConfig{
			Scenarios: []string{"rst-inject", "route-flap"}, Replicas: 6, Samples: 12,
			Workers: workers, Seed: 7, Confidence: 0.95,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run(1)
	if !reflect.DeepEqual(rep, run(4)) {
		t.Fatal("chaos report depends on worker count")
	}
	var pairs []pinnedPair
	for _, g := range [][2]string{{"", ""}, {"rst-inject", ""}, {"route-flap", "diamond"}} {
		for _, ab := range [][2]string{{"single", "dual"}, {"single", "syn"}, {"dual", "syn"}} {
			for _, dir := range []string{"forward", "reverse"} {
				nullOK := 1
				switch {
				case g[0] == "rst-inject" && ab[1] == "syn" && dir == "forward":
					nullOK = 0 // forged resets collapse single and dual; SYN probes carry no data
				case ab == [2]string{"single", "dual"} && (g[0] == "" && dir == "reverse" || g[0] == "route-flap" && dir == "forward"):
					nullOK = 0 // rejected at 95% over six replicas; ROADMAP item 22 asks whether that is power
				}
				pairs = append(pairs, pinnedPair{g[0], g[1], ab[0], ab[1], dir, 1, nullOK})
			}
		}
	}
	checkPinned(t, rep, []pinnedCell{
		{"", "", "single", 6, 0, 0, 1, 0.16666666666666666, 0.013888888888888888},
		{"", "", "dual", 6, 0, 0, 1, 0.13888888888888887, 0.09722222222222221},
		{"", "", "syn", 6, 0, 0, 1, 0.15277777777777776, 0.09722222222222221},
		{"rst-inject", "", "single", 6, 0, 0, 0.16666666666666666, 0, 0.08333333333333333},
		{"rst-inject", "", "dual", 6, 0, 0, 0, 0, 0},
		{"rst-inject", "", "syn", 6, 0, 0, 0.8333333333333334, 0.15277777777777776, 0.041666666666666664},
		{"route-flap", "diamond", "single", 6, 0, 0, 1, 0.13888888888888887, 0.09722222222222221},
		{"route-flap", "diamond", "dual", 6, 0, 0, 0.8333333333333334, 0.027777777777777776, 0.08333333333333333},
		{"route-flap", "diamond", "syn", 6, 0, 0, 0.8333333333333334, 0.08333333333333333, 0.08333333333333333},
	}, pairs)
	if d, want := rep.Disagreements(), []string{"(static)@p2p", "rst-inject@p2p", "route-flap@diamond"}; !reflect.DeepEqual(d, want) {
		t.Errorf("disagreements %v, want %v", d, want)
	}
}

// TestPairedRepeatedGroup: a name listed twice is two groups, each owning
// its own replicas — cells used to match results by name, so both copies
// counted both copies' targets.
func TestPairedRepeatedGroup(t *testing.T) {
	once, err := RunChaos(ChaosConfig{Scenarios: []string{"rst-inject"}, Replicas: 3, Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	twice, err := RunChaos(ChaosConfig{Scenarios: []string{"rst-inject", "rst-inject"}, Replicas: 3, Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(twice.Groups) != 3 {
		t.Fatalf("groups = %d, want static + 2", len(twice.Groups))
	}
	for _, g := range twice.Groups[1:] {
		if !reflect.DeepEqual(g, once.Groups[1]) {
			t.Errorf("repeated group %+v differs from the group listed once %+v", g, once.Groups[1])
		}
	}
	for _, c := range twice.Groups[1].Cells {
		if c.Targets+c.Excluded != 3 {
			t.Errorf("%s cell counts %d replicas, want 3", c.Test, c.Targets+c.Excluded)
		}
	}
	cong, err := RunCongestion(CongestionConfig{Topologies: []string{"p2p", "p2p"}, Replicas: 3, Samples: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range cong.Groups {
		for _, c := range g.Cells {
			if c.Targets+c.Excluded != 3 {
				t.Errorf("p2p/%s cell counts %d replicas, want 3", c.Test, c.Targets+c.Excluded)
			}
		}
	}
}
