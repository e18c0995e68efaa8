package campaign

import (
	"fmt"
	"io"
	"runtime"
	"sort"

	"reorder/internal/stats"
)

// Aggregator folds per-target results into campaign statistics without
// cross-worker synchronization: each worker owns one shard exclusively and
// adds to it lock-free; shards are merged once, at Summary time. Shards
// hold fixed-bin streaming histograms rather than raw sample pools, so
// campaign memory is constant in the target count — a million-target
// campaign costs the same few kilobytes per shard as a thousand-target
// one. Every merged statistic derives from integer bin counts plus exact
// running min/max, which makes the summary bit-identical no matter how
// targets were interleaved across shards.
type Aggregator struct {
	shards []*Shard
}

// NewAggregator returns an aggregator with one shard per worker.
func NewAggregator(workers int) *Aggregator {
	if workers <= 0 {
		workers = 1
	}
	a := &Aggregator{shards: make([]*Shard, workers)}
	for i := range a.shards {
		a.shards[i] = newShard()
	}
	return a
}

// Shard returns worker w's shard. Callers must ensure only one goroutine
// uses a given shard; the campaign scheduler guarantees this by passing
// each worker its own index.
func (a *Aggregator) Shard(w int) *Shard { return a.shards[w%len(a.shards)] }

// AddAll folds results in — how a resume's replayed prefix re-enters the
// statistics — in ranges spread over up to GOMAXPROCS of the shards in
// parallel. It uses the shards as its own, so it must finish before any
// worker adds; which shard a result lands in changes nothing in the
// summary.
func (a *Aggregator) AddAll(results []TargetResult) {
	if len(results) == 0 {
		return
	}
	forRanges(len(results), min(runtime.GOMAXPROCS(0), len(a.shards)), func(w, lo, hi int) {
		s := a.shards[w]
		for i := lo; i < hi; i++ {
			s.Add(&results[i])
		}
	})
}

// Histogram bin layouts. Rates and exposures live in [0,1]; 256 bins give
// ~0.4% quantile resolution. RTTs are scale-free, so geometric bins hold
// constant relative resolution from 1µs to 1000s. Extents are small
// integers; unit-width bins up to 128 resolve them exactly (deeper
// reordering clamps into the last bin). The edge slices are computed once
// and shared: histograms never mutate their edges, and one campaign
// builds dozens of histograms per worker shard.
var (
	rateEdgesV   = stats.UniformEdges(0, 1, 256)
	rttEdgesV    = stats.LogEdges(1, 1e9, 288)
	extentEdgesV = stats.UniformEdges(0, 128, 128)
)

func rateEdges() []float64   { return rateEdgesV }
func rttEdges() []float64    { return rttEdgesV }
func extentEdges() []float64 { return extentEdgesV }

// Shard accumulates results for one worker. Not safe for sharing.
type Shard struct {
	targets, errors, measured, excluded int
	withReordering                      int
	retried                             int
	dctExcluded                         map[string]int
	perTest                             map[string]*testShard

	pathRates *stats.Histogram
	rtts      *stats.Histogram
	// extents and exposure hold the transfer test's RFC 4737 sequence
	// statistics: per-target maximum reordering extent and the fraction of
	// packets 3-reordered (the classic-dupthresh spurious-retransmit
	// exposure).
	extents  *stats.Histogram
	exposure *stats.Histogram
}

type testShard struct {
	measured, errors, excluded, withReordering int
	fwdRates, revRates                         *stats.Histogram
}

func newShard() *Shard {
	return &Shard{
		dctExcluded: map[string]int{},
		perTest:     map[string]*testShard{},
		pathRates:   stats.NewHistogram(rateEdges()),
		rtts:        stats.NewHistogram(rttEdges()),
		extents:     stats.NewHistogram(extentEdges()),
		exposure:    stats.NewHistogram(rateEdges()),
	}
}

func newTestShard() *testShard {
	return &testShard{
		fwdRates: stats.NewHistogram(rateEdges()),
		revRates: stats.NewHistogram(rateEdges()),
	}
}

// Add folds one result in. It is a pure function of the result's fields,
// so results replayed from a checkpointed JSONL stream aggregate exactly
// as live probes do.
func (s *Shard) Add(r *TargetResult) {
	s.targets++
	if r.Attempts > 1 {
		s.retried++
	}
	ts := s.perTest[r.Test]
	if ts == nil {
		ts = newTestShard()
		s.perTest[r.Test] = ts
	}
	switch {
	case r.Err != "":
		s.errors++
		ts.errors++
		return
	case r.DCTExcluded != "":
		s.excluded++
		ts.excluded++
		s.dctExcluded[r.DCTExcluded]++
		return
	}
	s.measured++
	ts.measured++
	if r.AnyReordering {
		s.withReordering++
		ts.withReordering++
	}
	if r.FwdValid > 0 {
		ts.fwdRates.Add(r.FwdRate)
	}
	if r.RevValid > 0 {
		ts.revRates.Add(r.RevRate)
	}
	if rate, ok := r.PathRate(); ok {
		s.pathRates.Add(rate)
	}
	if r.RTTMicros > 0 {
		s.rtts.Add(float64(r.RTTMicros))
	}
	if r.SeqReceived > 0 {
		s.extents.Add(float64(r.SeqMaxExtent))
		s.exposure.Add(r.SeqDupthreshExposure)
	}
}

// Summary is the merged outcome of a campaign.
type Summary struct {
	// Targets is the number of results aggregated; Measured of them
	// produced rates, Errors failed terminally, Excluded were ruled out
	// by IPID prevalidation, Retried needed more than one attempt.
	Targets, Measured, Errors, Excluded, Retried int

	// WithReordering counts measured targets with at least one reordered
	// sample (the §IV-B headline statistic).
	WithReordering int

	// DCTExcluded counts prevalidation exclusions by reason.
	DCTExcluded map[string]int

	// PathRates summarizes the pooled per-target reordering rates.
	PathRates RateSummary
	// RTTMicros summarizes mean per-target RTTs, in microseconds.
	RTTMicros RateSummary

	// SeqMaxExtents summarizes the per-target maximum RFC 4737 reordering
	// extent over targets whose transfer test observed a data sequence.
	SeqMaxExtents RateSummary
	// DupthreshExposure summarizes the per-target fraction of transfer
	// packets 3-reordered — the share a classic dupthresh-3 TCP sender
	// would misread as loss.
	DupthreshExposure RateSummary

	// Tests holds the per-technique breakdown, sorted by test name.
	Tests []TestSummary

	// Interrupted records that the run quiesced (graceful shutdown) before
	// reaching its planned end: the summary covers the drained, emitted
	// prefix only, and the checkpoint (when configured) points a resumed
	// run at the remainder.
	Interrupted bool
}

// TestSummary is one technique's slice of the campaign.
type TestSummary struct {
	Test                       string
	Measured, Errors, Excluded int
	WithReordering             int
	Fwd, Rev                   RateSummary
}

// RateSummary reduces a streamed sample set: moments plus the quantiles a
// Fig 5-style CDF reading would want. N, Min and Max are exact; Mean and
// the quantiles are histogram-derived, accurate to within one bin width
// (see the bin layouts above).
type RateSummary struct {
	N              int
	Mean, Min, Max float64
	P50, P90, P99  float64
}

// summarizeHistogram reduces a merged histogram.
func summarizeHistogram(h *stats.Histogram) RateSummary {
	if h.Count() == 0 {
		return RateSummary{}
	}
	return RateSummary{
		N: h.Count(), Mean: h.Mean(), Min: h.Min(), Max: h.Max(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
}

// FractionWithReordering is WithReordering over Measured.
func (s *Summary) FractionWithReordering() float64 {
	if s.Measured == 0 {
		return 0
	}
	return float64(s.WithReordering) / float64(s.Measured)
}

// Summary merges all shards. Integer counts commute, and the histograms
// merge by adding integer bin counts, so every derived statistic is
// independent of how the scheduler happened to spread targets over
// workers — without ever materializing an O(targets) pool.
func (a *Aggregator) Summary() *Summary {
	out := &Summary{DCTExcluded: map[string]int{}}
	merged := newShard()
	type testPool struct {
		sum *TestSummary
		ts  *testShard
	}
	tests := map[string]*testPool{}
	for _, sh := range a.shards {
		out.Targets += sh.targets
		out.Measured += sh.measured
		out.Errors += sh.errors
		out.Excluded += sh.excluded
		out.Retried += sh.retried
		out.WithReordering += sh.withReordering
		for k, v := range sh.dctExcluded {
			out.DCTExcluded[k] += v
		}
		merged.pathRates.Merge(sh.pathRates)
		merged.rtts.Merge(sh.rtts)
		merged.extents.Merge(sh.extents)
		merged.exposure.Merge(sh.exposure)
		for name, ts := range sh.perTest {
			p := tests[name]
			if p == nil {
				p = &testPool{sum: &TestSummary{Test: name}, ts: newTestShard()}
				tests[name] = p
			}
			p.sum.Measured += ts.measured
			p.sum.Errors += ts.errors
			p.sum.Excluded += ts.excluded
			p.sum.WithReordering += ts.withReordering
			p.ts.fwdRates.Merge(ts.fwdRates)
			p.ts.revRates.Merge(ts.revRates)
		}
	}
	out.PathRates = summarizeHistogram(merged.pathRates)
	out.RTTMicros = summarizeHistogram(merged.rtts)
	out.SeqMaxExtents = summarizeHistogram(merged.extents)
	out.DupthreshExposure = summarizeHistogram(merged.exposure)
	for _, p := range tests {
		p.sum.Fwd = summarizeHistogram(p.ts.fwdRates)
		p.sum.Rev = summarizeHistogram(p.ts.revRates)
		out.Tests = append(out.Tests, *p.sum)
	}
	sort.Slice(out.Tests, func(i, j int) bool { return out.Tests[i].Test < out.Tests[j].Test })
	return out
}

// WriteText renders the summary as the campaign CLI's report. The output
// is a pure function of the aggregated results (no timing), so a fixed
// seed reproduces it byte for byte.
func (s *Summary) WriteText(w io.Writer) {
	if s.Interrupted {
		fmt.Fprintf(w, "campaign: interrupted — partial summary of the drained prefix\n")
	}
	fmt.Fprintf(w, "campaign: %d targets, %d measured, %d excluded (ipid), %d errors, %d retried\n",
		s.Targets, s.Measured, s.Excluded, s.Errors, s.Retried)
	fmt.Fprintf(w, "targets with some reordering: %d (%.1f%% of measured)\n",
		s.WithReordering, s.FractionWithReordering()*100)
	if len(s.DCTExcluded) > 0 {
		var reasons []string
		for k := range s.DCTExcluded {
			reasons = append(reasons, k)
		}
		sort.Strings(reasons)
		fmt.Fprintf(w, "dct exclusions:")
		for _, k := range reasons {
			fmt.Fprintf(w, " %s=%d", k, s.DCTExcluded[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "path reordering rate: mean=%.4f p50=%.4f p90=%.4f p99=%.4f max=%.4f (n=%d)\n",
		s.PathRates.Mean, s.PathRates.P50, s.PathRates.P90, s.PathRates.P99, s.PathRates.Max, s.PathRates.N)
	fmt.Fprintf(w, "rtt: mean=%.0fus p50=%.0fus p99=%.0fus\n",
		s.RTTMicros.Mean, s.RTTMicros.P50, s.RTTMicros.P99)
	if s.SeqMaxExtents.N > 0 {
		fmt.Fprintf(w, "rfc4737 max reordering extent (transfer): p50=%.1f p90=%.1f p99=%.1f max=%.0f (n=%d)\n",
			s.SeqMaxExtents.P50, s.SeqMaxExtents.P90, s.SeqMaxExtents.P99, s.SeqMaxExtents.Max, s.SeqMaxExtents.N)
		fmt.Fprintf(w, "dupthresh-3 exposure (transfer): mean=%.4f p50=%.4f p90=%.4f p99=%.4f (n=%d)\n",
			s.DupthreshExposure.Mean, s.DupthreshExposure.P50, s.DupthreshExposure.P90,
			s.DupthreshExposure.P99, s.DupthreshExposure.N)
	}
	fmt.Fprintf(w, "%-10s %8s %6s %6s %8s %10s %10s %10s %10s\n",
		"test", "measured", "excl", "errs", "reorder", "fwd-mean", "fwd-p99", "rev-mean", "rev-p99")
	for _, t := range s.Tests {
		fmt.Fprintf(w, "%-10s %8d %6d %6d %8d %10.4f %10.4f %10.4f %10.4f\n",
			t.Test, t.Measured, t.Excluded, t.Errors, t.WithReordering,
			t.Fwd.Mean, t.Fwd.P99, t.Rev.Mean, t.Rev.P99)
	}
}
