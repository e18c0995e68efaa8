package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bin streaming histogram: constant memory however
// many samples it absorbs, mergeable across shards, with bin-interpolated
// quantiles and CDF points. It is the constant-memory replacement for
// pooling raw samples when a campaign scales to millions of targets: every
// statistic it reports is a function of integer bin counts plus the exact
// running min/max, so merging shards in any layout yields bit-identical
// summaries — the property the campaign's determinism contract needs and
// raw float pooling only achieves by sorting the whole pool.
//
// Bin i covers [edges[i], edges[i+1]); samples below the first edge clamp
// into the first bin and samples at or above the last edge clamp into the
// last, so no sample is ever dropped from the count. Quantiles interpolate
// linearly within a bin and are therefore exact to within one bin width of
// the raw-sample quantile — for samples inside [edges[0], edges[len-1]).
// Clamped out-of-range samples keep Count/Min/Max exact but are
// indistinguishable from end-bin samples to Mean, Quantile and
// FractionAtMost, so choose edges that span the data's domain (rates in
// [0,1], RTTs within the geometric range, etc.).
type Histogram struct {
	edges  []float64
	counts []uint64
	n      uint64
	min    float64
	max    float64
}

// NewHistogram builds a histogram over the given ascending bin edges
// (len >= 2, so at least one bin). The edge slice is retained, not copied;
// callers must not mutate it.
func NewHistogram(edges []float64) *Histogram {
	if len(edges) < 2 {
		panic(fmt.Sprintf("stats: histogram needs >= 2 edges, got %d", len(edges)))
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			panic(fmt.Sprintf("stats: histogram edges not strictly ascending at %d: %v >= %v",
				i, edges[i-1], edges[i]))
		}
	}
	return &Histogram{edges: edges, counts: make([]uint64, len(edges)-1)}
}

// HistogramFromCounts adopts precomputed bin counts over the given edges,
// with the exact observed min and max. It is the snapshot half of sharded
// telemetry recorders (internal/obs): each shard's atomic bin counts are
// loaded once at scrape time and folded into an ordinary Histogram, which
// then merges and summarizes exactly like any live-built one. counts must
// have len(edges)-1 entries; the slices are retained, not copied.
func HistogramFromCounts(edges []float64, counts []uint64, min, max float64) *Histogram {
	if len(counts) != len(edges)-1 {
		panic(fmt.Sprintf("stats: %d counts for %d edges", len(counts), len(edges)))
	}
	h := &Histogram{edges: edges, counts: counts, min: min, max: max}
	for _, c := range counts {
		h.n += c
	}
	return h
}

// UniformEdges returns bins+1 equally spaced edges over [lo, hi].
func UniformEdges(lo, hi float64, bins int) []float64 {
	if bins <= 0 || !(hi > lo) {
		panic(fmt.Sprintf("stats: bad uniform edges [%v,%v] x%d", lo, hi, bins))
	}
	edges := make([]float64, bins+1)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i)/float64(bins)
	}
	edges[bins] = hi
	return edges
}

// LogEdges returns bins+1 geometrically spaced edges over [lo, hi]
// (lo > 0): constant relative bin width, the right shape for scale-free
// quantities like RTTs.
func LogEdges(lo, hi float64, bins int) []float64 {
	if bins <= 0 || !(lo > 0) || !(hi > lo) {
		panic(fmt.Sprintf("stats: bad log edges [%v,%v] x%d", lo, hi, bins))
	}
	edges := make([]float64, bins+1)
	ratio := math.Log(hi / lo)
	for i := range edges {
		edges[i] = lo * math.Exp(ratio*float64(i)/float64(bins))
	}
	edges[0], edges[bins] = lo, hi
	return edges
}

// Add folds one sample in. NaN samples are ignored.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if h.n == 0 {
		h.min, h.max = x, x
	} else {
		if x < h.min {
			h.min = x
		}
		if x > h.max {
			h.max = x
		}
	}
	h.n++
	h.counts[h.bin(x)]++
}

// bin locates the clamped bin index for x.
func (h *Histogram) bin(x float64) int {
	// First edge strictly greater than x; x's bin is the one before it.
	i := sort.Search(len(h.edges), func(j int) bool { return h.edges[j] > x }) - 1
	if i < 0 {
		return 0
	}
	if i >= len(h.counts) {
		return len(h.counts) - 1
	}
	return i
}

// Merge folds o into h. It panics if the histograms were built over
// different edges — merging shards of one campaign statistic is the only
// supported use, and mismatched edges there are a programming error.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if len(o.edges) != len(h.edges) {
		panic(fmt.Sprintf("stats: merging histograms with %d and %d edges", len(h.edges), len(o.edges)))
	}
	if &o.edges[0] != &h.edges[0] { // shared layouts skip the pointwise check
		for i, e := range h.edges {
			if o.edges[i] != e {
				panic(fmt.Sprintf("stats: merging histograms with different edges at %d: %v != %v", i, e, o.edges[i]))
			}
		}
	}
	if h.n == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// Count returns the number of samples absorbed.
func (h *Histogram) Count() int { return int(h.n) }

// NumBins returns the number of bins, one fewer than the edges.
func (h *Histogram) NumBins() int { return len(h.counts) }

// Min returns the exact smallest sample (0 when empty).
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest sample (0 when empty).
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Mean returns the bin-midpoint-weighted mean, clamped to [Min, Max]. It
// is exact when all samples share one value and within half a bin width
// otherwise; computing it from integer counts (rather than a float running
// sum) is what keeps merged summaries independent of shard layout.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	if h.min == h.max {
		return h.min
	}
	var sum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		mid := (h.edges[i] + h.edges[i+1]) / 2
		sum += float64(c) * mid
	}
	return h.clamp(sum / float64(h.n))
}

// Quantile returns the p-quantile (0 <= p <= 1), linearly interpolated
// within the containing bin and clamped to the observed [Min, Max]. An
// empty histogram returns NaN.
func (h *Histogram) Quantile(p float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	rank := p * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo, hi := h.edges[i], h.edges[i+1]
			frac := (rank - cum) / float64(c)
			return h.clamp(lo + frac*(hi-lo))
		}
		cum = next
	}
	return h.max
}

// CDFPoints returns (x, P(X<=x)) step points, one per nonempty bin, with x
// at the bin's upper edge (the last point's x clamps to Max so the curve
// ends at the observed extremum).
func (h *Histogram) CDFPoints() []Point {
	if h.n == 0 {
		return nil
	}
	var pts []Point
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		x := h.edges[i+1]
		if x > h.max {
			x = h.max
		}
		pts = append(pts, Point{X: x, Y: float64(cum) / float64(h.n)})
	}
	return pts
}

// FractionAtMost returns the empirical P(X <= x), interpolating linearly
// within x's bin.
func (h *Histogram) FractionAtMost(x float64) float64 {
	if h.n == 0 || x < h.min {
		return 0
	}
	if x >= h.max {
		return 1
	}
	b := h.bin(x)
	var cum uint64
	for i := 0; i < b; i++ {
		cum += h.counts[i]
	}
	lo, hi := h.edges[b], h.edges[b+1]
	frac := (x - lo) / (hi - lo)
	// Out-of-range samples clamp into the end bins, so x may sit outside
	// its bin's edge span; clamp the interpolation to keep the result a
	// probability.
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return (float64(cum) + frac*float64(h.counts[b])) / float64(h.n)
}

// BinWidth returns the width of the bin containing x — the resolution
// bound on quantile and mean error near x.
func (h *Histogram) BinWidth(x float64) float64 {
	b := h.bin(x)
	return h.edges[b+1] - h.edges[b]
}

func (h *Histogram) clamp(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}
