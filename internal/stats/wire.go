package stats

import (
	"fmt"
	"math"
)

// HistogramCounts is the exact wire form of a Histogram: the integer bin
// counts (sparse, as index/count pairs) plus the running min/max carried
// as IEEE-754 bit patterns so a JSON round trip cannot perturb them. It
// deliberately omits the edges — both ends of a transfer share the edge
// catalog by construction (campaign shards, obs recorders), and shipping
// ~300 float64 edges per span report would dwarf the payload. MergeCounts
// validates the bin count against the receiving histogram instead.
//
// Folding a HistogramCounts into a Histogram is integer addition plus an
// exact min/max fold, so merging snapshots in any order or grouping yields
// bit-identical summaries — the same invariant Histogram.Merge has, made
// serializable.
type HistogramCounts struct {
	N       uint64   `json:"n"`
	MinBits uint64   `json:"min,omitempty"` // math.Float64bits of the exact min; valid iff N > 0
	MaxBits uint64   `json:"max,omitempty"` // math.Float64bits of the exact max; valid iff N > 0
	Bins    []uint64 `json:"bins,omitempty"`
}

// CountsSnapshot captures the histogram's current contents as a sparse,
// serializable snapshot. Bins holds (index, count) pairs for the nonempty
// bins only.
func (h *Histogram) CountsSnapshot() HistogramCounts {
	var c HistogramCounts
	h.CountsInto(&c)
	return c
}

// CountsInto is CountsSnapshot into caller-owned storage: c is overwritten
// and its Bins slice reused, so a warmed encoder snapshots without
// allocating.
func (h *Histogram) CountsInto(c *HistogramCounts) {
	*c = HistogramCounts{N: h.n, Bins: c.Bins[:0]}
	if h.n == 0 {
		return
	}
	c.MinBits = math.Float64bits(h.min)
	c.MaxBits = math.Float64bits(h.max)
	for i, n := range h.counts {
		if n != 0 {
			c.Bins = append(c.Bins, uint64(i), n)
		}
	}
}

// MergeCounts folds a snapshot into h. Unlike Merge it cannot compare
// edges (the snapshot doesn't carry them), so it validates what it can —
// bin indices in range, pair structure, count conservation — and returns
// an error rather than panicking: snapshots arrive over the wire from
// other processes, and a malformed one must fail the connection, not the
// coordinator.
func (h *Histogram) MergeCounts(c HistogramCounts) error {
	if c.N == 0 {
		if len(c.Bins) != 0 {
			return fmt.Errorf("stats: histogram snapshot with n=0 but %d bin entries", len(c.Bins))
		}
		return nil
	}
	if len(c.Bins) == 0 || len(c.Bins)%2 != 0 {
		return fmt.Errorf("stats: histogram snapshot with malformed bin pairs (len %d)", len(c.Bins))
	}
	var total uint64
	for i := 0; i < len(c.Bins); i += 2 {
		idx, n := c.Bins[i], c.Bins[i+1]
		if idx >= uint64(len(h.counts)) {
			return fmt.Errorf("stats: histogram snapshot bin %d out of range (have %d bins)", idx, len(h.counts))
		}
		if n == 0 {
			return fmt.Errorf("stats: histogram snapshot carries empty bin %d", idx)
		}
		// Bounded by what n leaves, so the sum cannot wrap back onto n.
		if n > c.N-total {
			return fmt.Errorf("stats: histogram snapshot bin counts exceed header n=%d", c.N)
		}
		total += n
	}
	if total != c.N {
		return fmt.Errorf("stats: histogram snapshot bin counts sum to %d, header says %d", total, c.N)
	}
	min, max := math.Float64frombits(c.MinBits), math.Float64frombits(c.MaxBits)
	if math.IsNaN(min) || math.IsNaN(max) || min > max {
		return fmt.Errorf("stats: histogram snapshot with invalid min/max %v/%v", min, max)
	}
	if h.n == 0 {
		h.min, h.max = min, max
	} else {
		if min < h.min {
			h.min = min
		}
		if max > h.max {
			h.max = max
		}
	}
	h.n += c.N
	for i := 0; i < len(c.Bins); i += 2 {
		h.counts[c.Bins[i]] += c.Bins[i+1]
	}
	return nil
}

// Reset empties the histogram in place, keeping the edge layout. It is the
// shard-reuse half of snapshot/merge streaming: a worker snapshots its
// per-span shard, ships it, and resets for the next span without
// reallocating bins.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n = 0
	h.min, h.max = 0, 0
}
