package experiments

import (
	"fmt"
	"io"

	"reorder/internal/campaign"
)

// CongestionConfig parameterizes the routed-topology experiment: a campaign
// over graph topologies whose only source of reordering is congestion —
// background TCP flows contending for shared router queues and parallel
// link bundles — measured by the paper's single-packet, dual-packet and
// SACK-based (data transfer) techniques and cross-checked for agreement.
type CongestionConfig struct {
	// Topologies are registry names (default: every named topology,
	// "p2p" control included).
	Topologies []string
	// Replicas is how many seeds per topology×test cell (default 8).
	Replicas int
	// Samples per probe (default 16).
	Samples int
	// Workers caps campaign parallelism (default campaign.DefaultWorkers, 16).
	Workers int
	// Seed offsets the derived per-target seeds.
	Seed uint64
}

// RunCongestion executes the routed-topology experiment: each topology over
// the clean impairment (so any reordering is congestion's doing), measured
// by the single-packet, dual-packet and SACK-based data transfer techniques.
func RunCongestion(cfg CongestionConfig) (*PairedReport, error) {
	if len(cfg.Topologies) == 0 {
		cfg.Topologies = campaign.TopologyNames()
	}
	groups := make([]PairedGroup, len(cfg.Topologies))
	for i, topo := range cfg.Topologies {
		groups[i].Topology = topo
	}
	return runPaired(pairedSpec{
		title:      "congestion-induced reordering over routed topologies (clean paths, cross-traffic only)",
		impairment: "clean",
		tests:      []string{"single", "dual", "transfer"},
		groups:     groups,
		replicas:   cfg.Replicas, samples: cfg.Samples, workers: cfg.Workers,
		seed: cfg.Seed,
	})
}

// ChaosConfig parameterizes the fault-schedule experiment: a campaign over
// the adversarial scenario catalog — time-varying impairment timelines,
// mid-flow route flaps, hostile middleboxes — measured by the paper's
// single-packet, dual-packet and SYN techniques and cross-checked for
// agreement. Where the congestion experiment asks whether clean routed
// paths reorder at all, this one asks which measurement techniques survive
// a path that actively misbehaves.
type ChaosConfig struct {
	// Scenarios are registry names (default: every named scenario). The ""
	// static control is always prepended so each technique has a fault-free
	// baseline cell.
	Scenarios []string
	// Replicas is how many seeds per scenario×test cell (default 8).
	Replicas int
	// Samples per probe (default 16).
	Samples int
	// Workers caps campaign parallelism (default campaign.DefaultWorkers, 16).
	Workers int
	// Seed offsets the derived per-target seeds.
	Seed uint64
	// Confidence for the paired-difference agreement test (default 99.9%).
	Confidence float64
}

// RunChaos executes the fault-schedule experiment: each scenario over the
// swap-heavy impairment (a solid baseline every technique measures the
// same), on the topology it was designed around. The SYN test rides along
// because its probes carry no data: middleboxes that only molest data
// segments (RST/FIN injection, sequence holes) leave it untouched, which is
// exactly the kind of technique divergence a fault schedule should expose.
func RunChaos(cfg ChaosConfig) (*PairedReport, error) {
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = campaign.ScenarioNames()
	}
	groups := make([]PairedGroup, 1, 1+len(cfg.Scenarios))
	for _, scn := range cfg.Scenarios {
		groups = append(groups, PairedGroup{Scenario: scn, Topology: campaign.ScenarioTopology(scn)})
	}
	return runPaired(pairedSpec{
		title:      "technique robustness under time-varying and adversarial fault schedules",
		impairment: "swap-heavy",
		tests:      []string{"single", "dual", "syn"},
		groups:     groups,
		replicas:   cfg.Replicas, samples: cfg.Samples, workers: cfg.Workers,
		seed: cfg.Seed, confidence: cfg.Confidence,
	})
}

// PairedCell aggregates one group×test combination.
type PairedCell struct {
	Test     string
	Targets  int // probes that produced a measurement
	Excluded int // probes excluded (errors, IPID prevalidation)
	Errored  int // of Excluded, probes that ended in a hard error
	// Reordering is the fraction of measurements with at least one
	// reordered sample.
	Reordering float64
	// MeanFwdRate and MeanRevRate average the per-probe reordering rates.
	MeanFwdRate, MeanRevRate float64
}

// PairedGroup is one listed scenario×topology combination: a cell per
// technique, and the technique-agreement pairs over its replicas.
type PairedGroup struct {
	Scenario string // "" = static
	Topology string // "" = point-to-point
	Cells    []PairedCell
	Pairs    []AgreementPair
}

// names returns the group's display names, the empty defaults spelled out.
func (g *PairedGroup) names() (scenario, topology string) {
	scenario, topology = g.Scenario, g.Topology
	if scenario == "" {
		scenario = "(static)"
	}
	if topology == "" {
		topology = "p2p"
	}
	return scenario, topology
}

// PairedReport is the output of the congestion and chaos experiments:
// per-cell reordering incidence plus, per group, the agreement pairs.
type PairedReport struct {
	Title      string
	Groups     []PairedGroup
	Confidence float64
}

// Cell returns the (scenario, topology, test) cell, if present.
func (rep *PairedReport) Cell(scenario, topology, test string) (PairedCell, bool) {
	for _, g := range rep.Groups {
		if g.Scenario != scenario || g.Topology != topology {
			continue
		}
		for _, c := range g.Cells {
			if c.Test == test {
				return c, true
			}
		}
	}
	return PairedCell{}, false
}

// Disagreements returns, as "scenario@topology", the groups with at least
// one agreement pair whose null hypothesis (same mean rate from both
// techniques) is rejected — the conditions that measurably split the
// techniques apart.
func (rep *PairedReport) Disagreements() []string {
	var out []string
	for i := range rep.Groups {
		for _, p := range rep.Groups[i].Pairs {
			if p.NullOK == 0 {
				scn, topo := rep.Groups[i].names()
				out = append(out, scn+"@"+topo)
				break
			}
		}
	}
	return out
}

// WriteText prints the per-cell table and the per-group agreement pairs.
func (rep *PairedReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%s\n", rep.Title)
	fmt.Fprintf(w, "%-15s %-12s %-9s %7s %8s %7s %10s %9s %9s\n",
		"scenario", "topology", "test", "targets", "excluded", "errors", "reordering", "fwd-rate", "rev-rate")
	for i := range rep.Groups {
		scn, topo := rep.Groups[i].names()
		for _, c := range rep.Groups[i].Cells {
			fmt.Fprintf(w, "%-15s %-12s %-9s %7d %8d %7d %9.0f%% %9.4f %9.4f\n",
				scn, topo, c.Test, c.Targets, c.Excluded, c.Errored,
				c.Reordering*100, c.MeanFwdRate, c.MeanRevRate)
		}
	}
	fmt.Fprintf(w, "\ntechnique agreement per group (paired-difference @ %.1f%% confidence)\n", rep.Confidence*100)
	fmt.Fprintf(w, "%-15s %-12s %-9s %-9s %-8s %6s %7s\n", "scenario", "topology", "test-a", "test-b", "dir", "series", "null-ok")
	for i := range rep.Groups {
		scn, topo := rep.Groups[i].names()
		for _, p := range rep.Groups[i].Pairs {
			fmt.Fprintf(w, "%-15s %-12s %-9s %-9s %-8s %6d %7d\n",
				scn, topo, p.TestA, p.TestB, p.Direction, p.Hosts, p.NullOK)
		}
	}
	if d := rep.Disagreements(); len(d) > 0 {
		fmt.Fprintf(w, "\ngroups splitting the techniques apart (null rejected): %v\n", d)
	}
}

// pairedSpec is what distinguishes one paired experiment from another.
type pairedSpec struct {
	title      string
	impairment string
	tests      []string
	groups     []PairedGroup // Scenario and Topology set, the rest filled in
	replicas   int
	samples    int
	workers    int
	seed       uint64
	confidence float64
}

// runPaired is the engine behind the congestion and chaos experiments:
// enumerate test × replica targets for each group, probe them all on the
// campaign scheduler's pool, aggregate each group×test cell, and compare the
// techniques' replica-paired rate series per group.
func runPaired(s pairedSpec) (*PairedReport, error) {
	if s.replicas <= 0 {
		s.replicas = 8
	}
	if s.samples <= 0 {
		s.samples = 16
	}
	if s.confidence == 0 {
		s.confidence = confidence
	}
	// One Enumerate per group keeps each a clean cross product (a scenario
	// pairs with its own topology, not with every other's), and gives each
	// listed group its own index range: results are attributed by range,
	// so a name listed twice is two groups, not one of double size.
	var targets []campaign.Target
	ends := make([]int, len(s.groups))
	for gi, g := range s.groups {
		ts, err := campaign.Enumerate(campaign.EnumSpec{
			Profiles:    []string{"freebsd4"},
			Impairments: []string{s.impairment},
			Tests:       s.tests,
			Seeds:       s.replicas,
			BaseSeed:    s.seed,
			Topologies:  []string{g.Topology},
			Scenarios:   []string{g.Scenario},
		})
		if err != nil {
			return nil, err
		}
		for i := range ts {
			ts[i].Index = len(targets) + i
		}
		targets = append(targets, ts...)
		ends[gi] = len(targets)
	}

	// Each pool worker probes through its own arena, re-seeded per target:
	// the per-target probe campaign.Run drives, with no output files.
	// RunSpans fails only through its emit callback, and there is none.
	results := make([]campaign.TargetResult, len(targets))
	sched := campaign.NewScheduler(campaign.SchedulerConfig{Workers: s.workers})
	arenas := make([]*campaign.ProbeArena, sched.Workers())
	for i := range arenas {
		arenas[i] = campaign.NewProbeArena()
	}
	_ = sched.RunSpans(0, len(targets), nil, func(worker, i, attempt int) error {
		arenas[worker].ProbeTargetInto(&results[i], targets[i], s.samples, attempt)
		return nil
	}, nil)

	rep := &PairedReport{Title: s.title, Groups: s.groups, Confidence: s.confidence}
	start := 0
	for gi := range rep.Groups {
		g, group := &rep.Groups[gi], results[start:ends[gi]]
		// Replica-paired rate series per test and direction: replica r of
		// every technique derives from the same seed (the test is excluded
		// from seed derivation), so series index pairs are genuinely paired
		// measurements of the same path instance — the group is one
		// surveyed host whose rounds are its replicas.
		series := &HostRecord{FwdSeries: map[string][]float64{}, RevSeries: map[string][]float64{}}
		for _, test := range s.tests {
			cell := PairedCell{Test: test}
			for i := range group {
				r := &group[i]
				if r.Test != test {
					continue
				}
				fwd, rev := r.FwdRate, r.RevRate
				if r.Err != "" || r.DCTExcluded != "" {
					cell.Excluded++
					if r.Err != "" {
						cell.Errored++
					}
					// Keep series index-aligned across techniques: an excluded
					// replica pairs as a zero-rate measurement, which the small
					// replica counts here tolerate better than misaligned
					// pairs. Under schedules that kill connections outright
					// (RST injection) the hard errors ARE the divergence, and
					// zero-rate is exactly what the broken technique reports.
					fwd, rev = 0, 0
				} else {
					cell.Targets++
					if r.AnyReordering {
						cell.Reordering++
					}
					cell.MeanFwdRate += fwd
					cell.MeanRevRate += rev
				}
				series.FwdSeries[test] = append(series.FwdSeries[test], fwd)
				series.RevSeries[test] = append(series.RevSeries[test], rev)
			}
			if cell.Targets > 0 {
				cell.Reordering /= float64(cell.Targets)
				cell.MeanFwdRate /= float64(cell.Targets)
				cell.MeanRevRate /= float64(cell.Targets)
			}
			g.Cells = append(g.Cells, cell)
		}
		for _, p := range agreementPairs(s.tests, []*HostRecord{series}, s.confidence) {
			if p.Hosts > 0 { // too few replicas to compare: no row
				g.Pairs = append(g.Pairs, p)
			}
		}
		start = ends[gi]
	}
	return rep, nil
}
