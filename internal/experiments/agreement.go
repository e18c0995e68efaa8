package experiments

import (
	"fmt"
	"io"

	"reorder/internal/stats"
)

// confidence is the paper's level for the paired-difference test (§IV-B).
const confidence = 0.999

// AgreementPair is the §IV-B paired-difference comparison of two techniques
// across the surveyed hosts: for each host, their per-round rate series are
// compared at 99.9% confidence; NullFraction is the fraction of comparable
// hosts for which the difference is explicable by intra-test variability.
type AgreementPair struct {
	TestA, TestB string
	Direction    string // "forward" or "reverse"
	Hosts        int    // hosts with enough rounds of both tests
	NullOK       int    // hosts supporting the null hypothesis
}

// NullFraction returns NullOK/Hosts (the paper's 78%, 93%, ... numbers).
func (a AgreementPair) NullFraction() float64 {
	if a.Hosts == 0 {
		return 0
	}
	return float64(a.NullOK) / float64(a.Hosts)
}

// AgreementReport holds all pairwise comparisons.
type AgreementReport struct {
	Confidence float64
	Pairs      []AgreementPair
}

// Pair returns the comparison for (a, b, direction), if present.
func (rep *AgreementReport) Pair(a, b, dir string) (AgreementPair, bool) {
	for _, p := range rep.Pairs {
		if p.TestA == a && p.TestB == b && p.Direction == dir {
			return p, true
		}
	}
	return AgreementPair{}, false
}

// WriteText prints the pairwise table.
func (rep *AgreementReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "E4 technique agreement (paired-difference test @ %.1f%% confidence)\n", rep.Confidence*100)
	fmt.Fprintf(w, "%-10s %-10s %-8s %6s %7s %9s\n", "test-a", "test-b", "dir", "hosts", "null-ok", "fraction")
	for _, p := range rep.Pairs {
		fmt.Fprintf(w, "%-10s %-10s %-8s %6d %7d %8.0f%%\n",
			p.TestA, p.TestB, p.Direction, p.Hosts, p.NullOK, p.NullFraction()*100)
	}
}

// RunAgreement executes E4 over a completed survey. The comparison treats
// the two series as paired per round, under the paper's stationarity
// assumption (the measurements were taken at interleaved times).
func RunAgreement(survey *SurveyReport) *AgreementReport {
	return &AgreementReport{Confidence: confidence, Pairs: agreementPairs(TestNames, survey.Hosts, confidence)}
}

// agreementPairs walks every technique pair in each direction and counts
// the hosts whose two rate series the paired-difference test cannot tell
// apart. A host is comparable for a pair when both series have at least
// three rounds.
func agreementPairs(tests []string, hosts []*HostRecord, level float64) []AgreementPair {
	var pairs []AgreementPair
	for _, dir := range []string{"forward", "reverse"} {
		for i, a := range tests {
			for _, b := range tests[i+1:] {
				if dir == "forward" && (a == "transfer" || b == "transfer") {
					continue // the transfer test has no forward direction
				}
				pair := AgreementPair{TestA: a, TestB: b, Direction: dir}
				for _, h := range hosts {
					sa, sb := h.FwdSeries[a], h.FwdSeries[b]
					if dir == "reverse" {
						sa, sb = h.RevSeries[a], h.RevSeries[b]
					}
					n := min(len(sa), len(sb))
					if n < 3 {
						continue
					}
					pair.Hosts++
					if stats.PairDifference(sa[:n], sb[:n], level).NullSupported {
						pair.NullOK++
					}
				}
				pairs = append(pairs, pair)
			}
		}
	}
	return pairs
}
