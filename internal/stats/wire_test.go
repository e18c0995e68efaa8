package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// Snapshot → JSON → MergeCounts must reproduce the source histogram
// exactly, whatever the sample distribution or shard partitioning.
func TestHistogramCountsRoundTrip(t *testing.T) {
	edges := LogEdges(1, 1e9, 288)
	rng := rand.New(rand.NewSource(7))

	whole := NewHistogram(edges)
	shards := []*Histogram{NewHistogram(edges), NewHistogram(edges), NewHistogram(edges)}
	for i := 0; i < 10000; i++ {
		x := math.Exp(rng.Float64() * 21) // spans below/inside/above the edge range
		if rng.Intn(50) == 0 {
			x = -x
		}
		whole.Add(x)
		shards[rng.Intn(len(shards))].Add(x)
	}

	merged := NewHistogram(edges)
	for _, s := range shards {
		snap := s.CountsSnapshot()
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var back HistogramCounts
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if err := merged.MergeCounts(back); err != nil {
			t.Fatal(err)
		}
	}

	if merged.Count() != whole.Count() {
		t.Fatalf("count %d != %d", merged.Count(), whole.Count())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("min/max %v/%v != %v/%v", merged.Min(), merged.Max(), whole.Min(), whole.Max())
	}
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if a, b := merged.Quantile(p), whole.Quantile(p); a != b {
			t.Fatalf("q%.2f: %v != %v", p, a, b)
		}
	}
	if merged.Mean() != whole.Mean() {
		t.Fatalf("mean %v != %v", merged.Mean(), whole.Mean())
	}
}

func TestHistogramCountsEmpty(t *testing.T) {
	h := NewHistogram(UniformEdges(0, 1, 8))
	snap := h.CountsSnapshot()
	if snap.N != 0 || snap.Bins != nil {
		t.Fatalf("empty snapshot not empty: %+v", snap)
	}
	dst := NewHistogram(UniformEdges(0, 1, 8))
	if err := dst.MergeCounts(snap); err != nil {
		t.Fatal(err)
	}
	if dst.Count() != 0 {
		t.Fatalf("merged empty snapshot produced count %d", dst.Count())
	}
}

func TestHistogramMergeCountsRejectsMalformed(t *testing.T) {
	edges := UniformEdges(0, 1, 4)
	cases := []HistogramCounts{
		{N: 0, Bins: []uint64{0, 1}},                     // n=0 with bins
		{N: 1},                                           // n>0 without bins
		{N: 1, Bins: []uint64{0}},                        // odd pair list
		{N: 1, Bins: []uint64{9, 1}},                     // bin index out of range
		{N: 2, Bins: []uint64{0, 1}},                     // count mismatch
		{N: 1, Bins: []uint64{0, 0}},                     // zero-count pair
		{N: 1, Bins: []uint64{0, 1 << 63, 1, 1<<63 + 1}}, // bin counts wrap: they sum to n mod 2^64
		{N: 1, MinBits: math.Float64bits(2), MaxBits: math.Float64bits(1), Bins: []uint64{0, 1}}, // min > max
		{N: 1, MinBits: math.Float64bits(math.NaN()), MaxBits: 0, Bins: []uint64{0, 1}},          // NaN min
		{N: 1, MinBits: 0, MaxBits: math.Float64bits(math.Inf(0) * 0), Bins: []uint64{0, 1}},     // NaN max
	}
	for i, c := range cases {
		h := NewHistogram(edges)
		if err := h.MergeCounts(c); err == nil {
			t.Errorf("case %d: malformed snapshot %+v accepted", i, c)
		}
		if h.Count() != 0 {
			t.Errorf("case %d: rejected snapshot mutated histogram (n=%d)", i, h.Count())
		}
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(UniformEdges(0, 1, 8))
	for i := 0; i < 100; i++ {
		h.Add(float64(i) / 100)
	}
	h.Reset()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("reset left state: n=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
	h.Add(0.5)
	if h.Count() != 1 || h.Min() != 0.5 || h.Max() != 0.5 {
		t.Fatalf("post-reset add wrong: n=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
	snap := h.CountsSnapshot()
	if snap.N != 1 || len(snap.Bins) != 2 {
		t.Fatalf("post-reset snapshot wrong: %+v", snap)
	}
}
