// Package experiments contains one runner per table and figure of the
// paper's evaluation (§IV), each reproducing the corresponding workload on
// the simulated substrate and returning a typed report that the command-
// line tools print and the benchmarks regenerate.
package experiments

import (
	"fmt"
	"io"

	"reorder/internal/core"
	"reorder/internal/host"
	"reorder/internal/simnet"
)

// ValidationConfig parameterizes E1, the §IV-A controlled validation: a
// dummynet-style swapper is configured with known forward and reverse
// reordering rates, each technique takes its samples, and the tool's
// verdicts are checked against trace ground truth.
type ValidationConfig struct {
	// Rates are the swap probabilities to sweep on each path (paper:
	// 1, 3, 5, 10, 15 and 40 percent).
	Rates []float64
	// Samples per run (paper: 100).
	Samples int
	// Seed makes the report reproducible.
	Seed uint64
	// Workers caps the parallel runs (default campaign.DefaultWorkers, 16).
	// Each run is hermetic — its own scenario and prober derive from its
	// seed alone — so the report is identical at any worker count.
	Workers int
}

// DefaultValidation returns the paper's full grid: 36 rate combinations
// for each of the three bidirectional tests plus 6 reverse-only data
// transfer runs — 114 runs of 100 samples.
func DefaultValidation() ValidationConfig {
	return ValidationConfig{
		Rates:   []float64{0.01, 0.03, 0.05, 0.10, 0.15, 0.40},
		Samples: 100,
		Seed:    2002,
	}
}

// ValidationRun is one (test, forward rate, reverse rate) cell.
type ValidationRun struct {
	Test             string
	FwdRate, RevRate float64
	Samples          int // valid samples compared against ground truth
	ToolFwd          int // reordered per the tool
	TruthFwd         int // reordered per the trace
	ToolRev          int
	TruthRev         int
	Err              string // non-empty if the run failed outright
}

// FwdDiscrepancy is |tool - truth| for the forward direction.
func (r ValidationRun) FwdDiscrepancy() int { return abs(r.ToolFwd - r.TruthFwd) }

// RevDiscrepancy is |tool - truth| for the reverse direction.
func (r ValidationRun) RevDiscrepancy() int { return abs(r.ToolRev - r.TruthRev) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ValidationReport aggregates all runs.
type ValidationReport struct {
	Runs         []ValidationRun
	TotalSamples int
}

// Discrepancies returns the number of runs with a nonzero forward and
// reverse discrepancy (the paper reports 8 and 2 out of 114).
func (rep *ValidationReport) Discrepancies() (fwd, rev int) {
	for _, r := range rep.Runs {
		if r.FwdDiscrepancy() > 0 {
			fwd++
		}
		if r.RevDiscrepancy() > 0 {
			rev++
		}
	}
	return fwd, rev
}

// CorrectFraction returns the fraction of samples whose verdict matched
// ground truth (the paper's 99.99%).
func (rep *ValidationReport) CorrectFraction() float64 {
	if rep.TotalSamples == 0 {
		return 0
	}
	wrong := 0
	for _, r := range rep.Runs {
		wrong += r.FwdDiscrepancy() + r.RevDiscrepancy()
	}
	return 1 - float64(wrong)/float64(rep.TotalSamples)
}

// WriteText prints the report as the paper-style table.
func (rep *ValidationReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "E1 controlled validation (%d runs, %d samples)\n", len(rep.Runs), rep.TotalSamples)
	fmt.Fprintf(w, "%-9s %5s %5s %8s %9s %9s %9s %9s\n",
		"test", "fwd%", "rev%", "samples", "tool-fwd", "true-fwd", "tool-rev", "true-rev")
	for _, r := range rep.Runs {
		if r.Err != "" {
			fmt.Fprintf(w, "%-9s %5.1f %5.1f  error: %s\n", r.Test, r.FwdRate*100, r.RevRate*100, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-9s %5.1f %5.1f %8d %9d %9d %9d %9d\n",
			r.Test, r.FwdRate*100, r.RevRate*100, r.Samples, r.ToolFwd, r.TruthFwd, r.ToolRev, r.TruthRev)
	}
	f, v := rep.Discrepancies()
	fmt.Fprintf(w, "runs with discrepancy: forward=%d reverse=%d; samples correct: %.4f%%\n",
		f, v, rep.CorrectFraction()*100)
}

// validationSpec is one grid cell waiting to run: the flattened form of
// the historical nested loops, in the exact order (and with the exact
// seed sequence) they used to execute in.
type validationSpec struct {
	test     string
	fwd, rev float64
	seed     uint64
}

// RunValidation executes E1. The grid runs through the campaign span
// scheduler — each cell is hermetic, so cells parallelize freely — and the
// report lists cells in the same order the old sequential loops produced.
func RunValidation(cfg ValidationConfig) *ValidationReport {
	var specs []validationSpec
	seed := cfg.Seed
	for _, fr := range cfg.Rates {
		for _, rr := range cfg.Rates {
			for _, test := range []string{"single", "dual", "syn"} {
				seed++
				specs = append(specs, validationSpec{test: test, fwd: fr, rev: rr, seed: seed})
			}
		}
	}
	// Data transfer: reverse-only manipulation, per the paper.
	for _, rr := range cfg.Rates {
		seed++
		specs = append(specs, validationSpec{test: "transfer", rev: rr, seed: seed})
	}

	rep := &ValidationReport{Runs: make([]ValidationRun, len(specs))}
	// Runs never fail: a failed measurement is recorded in its own run.
	_ = forEach(cfg.Workers, len(specs), func(i int) error {
		sp := specs[i]
		if sp.test == "transfer" {
			rep.Runs[i] = validateTransferRun(sp.rev, cfg.Samples, sp.seed)
		} else {
			rep.Runs[i] = validateRun(sp.test, sp.fwd, sp.rev, cfg.Samples, sp.seed)
		}
		return nil
	})
	for _, r := range rep.Runs {
		rep.TotalSamples += 2 * r.Samples // one verdict per direction
	}
	return rep
}

// validationProfile is the server used by E1: delayed ACKs on (the hard
// case for the single connection test) and a global-counter IPID.
func validationProfile() host.Profile { return host.FreeBSD4() }

func validateRun(test string, fr, rr float64, samples int, seed uint64) ValidationRun {
	run := ValidationRun{Test: test, FwdRate: fr, RevRate: rr}
	n := simnet.New(simnet.Config{
		Seed:    seed,
		Server:  validationProfile(),
		Forward: simnet.PathSpec{SwapProb: fr},
		Reverse: simnet.PathSpec{SwapProb: rr},
	})
	p := core.NewProber(n.Probe(), n.ServerAddr(), seed^0xabc)
	res := new(core.Result)
	if err := p.SurveyTestInto(res, test, samples); err != nil {
		run.Err = err.Error()
		return run
	}
	for _, s := range res.Samples {
		scoreSample(&run, n, s)
	}
	return run
}

// scoreSample compares one sample's verdicts against the captures.
func scoreSample(run *ValidationRun, n *simnet.Net, s core.Sample) {
	if s.Forward.Valid() {
		if truth, ok := n.HostIngress.Exchanged(s.SentIDs[0], s.SentIDs[1]); ok {
			run.Samples++
			if s.Forward == core.VerdictReordered {
				run.ToolFwd++
			}
			if truth {
				run.TruthFwd++
			}
			if s.Reverse.Valid() && s.ReplyIDs[0] != 0 && s.ReplyIDs[1] != 0 {
				// Reverse truth: ReplyIDs are in probe arrival order; if the
				// first-received was sent later by the host, they exchanged.
				i, ok1 := n.HostEgress.Position(s.ReplyIDs[0])
				j, ok2 := n.HostEgress.Position(s.ReplyIDs[1])
				if ok1 && ok2 {
					if s.Reverse == core.VerdictReordered {
						run.ToolRev++
					}
					if i > j {
						run.TruthRev++
					}
				}
			}
		}
	}
}

func validateTransferRun(rr float64, samples int, seed uint64) ValidationRun {
	run := ValidationRun{Test: "transfer", RevRate: rr}
	prof := validationProfile()
	prof.TCP.ObjectSize = core.TransferObjectSize(samples)
	n := simnet.New(simnet.Config{
		Seed:    seed,
		Server:  prof,
		Reverse: simnet.PathSpec{SwapProb: rr},
	})
	p := core.NewProber(n.Probe(), n.ServerAddr(), seed^0xabc)
	res, err := p.DataTransferTest(core.TransferOptions{})
	if err != nil {
		run.Err = err.Error()
		return run
	}
	for _, s := range res.Samples {
		if s.Reverse.Valid() {
			run.Samples++
			if s.Reverse == core.VerdictReordered {
				run.ToolRev++
			}
		}
	}
	run.TruthRev = transferTruth(n)
	return run
}

// transferTruth counts adjacent first-arrival exchanges of the transfer's
// data packets by comparing host-egress send order with probe-ingress
// arrival order — the trace analysis of §IV-A.
func transferTruth(n *simnet.Net) int {
	egressPos := func(id uint64) (int, bool) { return n.HostEgress.Position(id) }
	var positions []int
	seenSeq := map[uint32]bool{}
	for _, rec := range n.ProbeIngress.Records() {
		p, err := rec.Decode()
		if err != nil || p.TCP == nil || len(p.Payload) == 0 || p.IP.Src != n.ServerAddr() {
			continue
		}
		if seenSeq[p.TCP.Seq] {
			continue // retransmission: tool skips these too
		}
		seenSeq[p.TCP.Seq] = true
		if i, ok := egressPos(rec.FrameID); ok {
			positions = append(positions, i)
		}
	}
	exchanges := 0
	for i := 1; i < len(positions); i++ {
		if positions[i] < positions[i-1] {
			exchanges++
		}
	}
	return exchanges
}
