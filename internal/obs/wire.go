package obs

import (
	"fmt"
	"math"

	"reorder/internal/stats"
)

// WorkerWire is one worker process's telemetry contribution, shipped to
// the coordinator at disconnect: summed worker-shard totals, the exact
// probe-latency recorder bins (sparse counts, not a lossy summary, so the
// coordinator's merged latency quantiles equal a single process's), and
// the process-local scheduler counters (retries happen on the worker's side
// of the wire).
type WorkerWire struct {
	Totals       WorkerTotals          `json:"totals"`
	ProbeLatency stats.HistogramCounts `json:"probe_latency"`
	ProbeSumNs   uint64                `json:"probe_sum_ns"`
	Scheduler    SchedulerSnapshot     `json:"scheduler"`
	Dist         DistSnapshot          `json:"dist"`
}

// Wire captures the registry's cross-process telemetry contribution.
// Nil-safe: a nil registry yields a zero value.
func (c *Campaign) Wire() WorkerWire {
	var w WorkerWire
	if c == nil {
		return w
	}
	s := c.Snapshot()
	w.Totals = s.Workers
	w.Scheduler = s.Scheduler
	w.Dist = s.Dist
	if h := c.ProbeLatencyHistogram(); h != nil {
		w.ProbeLatency = h.CountsSnapshot()
	}
	for _, wk := range c.workers {
		w.ProbeSumNs += wk.ProbeNanos.Sum()
	}
	return w
}

// AbsorbRemote folds a remote worker's wire snapshot into shard
// `shard`'s counters and the scheduler block, so coordinator-side
// snapshots and /metrics cover the whole distributed run. Callers must
// serialize AbsorbRemote calls (the recorder min/max cells are
// single-writer); the dist coordinator absorbs under its state lock.
func (c *Campaign) AbsorbRemote(shard int, w WorkerWire) error {
	if c == nil {
		return nil
	}
	wk := c.Worker(shard)
	// The latency bins are the one part that can be malformed, and their
	// fold validates before it changes anything: a refused snapshot
	// leaves every counter as it was.
	if err := wk.ProbeNanos.absorbCounts(w.ProbeLatency, w.ProbeSumNs); err != nil {
		return err
	}
	wk.Targets.Add(w.Totals.Targets)
	wk.Attempts.Add(w.Totals.Attempts)
	wk.ArenaResets.Add(w.Totals.ArenaResets)
	wk.ArenaBuilds.Add(w.Totals.ArenaBuilds)
	wk.SimEvents.Add(w.Totals.SimEvents)
	wk.SimReschedules.Add(w.Totals.SimReschedules)
	wk.SimPeakHeap.SetMax(w.Totals.SimPeakHeap)
	wk.SimNanos.Add(w.Totals.SimNanos)
	wk.FramesIn.Add(w.Totals.FramesIn)
	wk.FramesOut.Add(w.Totals.FramesOut)
	wk.FramesDrop.Add(w.Totals.FramesDrop)
	wk.FramesSwap.Add(w.Totals.FramesSwap)
	wk.FramesBorn.Add(w.Totals.FramesBorn)
	wk.Materialized.Add(w.Totals.Materialized)
	wk.RenderedJSONBytes.Add(w.Totals.RenderedJSON)
	wk.RenderedCSVBytes.Add(w.Totals.RenderedCSV)
	c.Sched.Retries.Add(w.Scheduler.Retries)
	c.Dist.Reconnects.Add(w.Dist.Reconnects)
	c.Dist.Respawns.Add(w.Dist.Respawns)
	c.Dist.LeaseReissues.Add(w.Dist.LeaseReissues)
	c.Dist.AcceptRetries.Add(w.Dist.AcceptRetries)
	return nil
}

// absorbCounts folds an exact bin snapshot of another recorder in, or
// refuses it and changes nothing. The caller serializes with the shard's
// writer (see AbsorbRemote).
func (r *Recorder) absorbCounts(c stats.HistogramCounts, sum uint64) error {
	if c.N == 0 {
		return nil
	}
	if len(c.Bins) == 0 || len(c.Bins)%2 != 0 {
		return fmt.Errorf("obs: recorder snapshot with malformed bin pairs (len %d)", len(c.Bins))
	}
	if c.N > math.MaxUint64-r.count.Load() {
		return fmt.Errorf("obs: recorder snapshot of %d samples overflows the count", c.N)
	}
	var total uint64
	for i := 0; i < len(c.Bins); i += 2 {
		if c.Bins[i] >= recorderBins {
			return fmt.Errorf("obs: recorder snapshot bin %d out of range", c.Bins[i])
		}
		// Bounded by what n leaves, so the sum cannot wrap back onto n.
		if c.Bins[i+1] > c.N-total {
			return fmt.Errorf("obs: recorder snapshot bin counts exceed header n=%d", c.N)
		}
		total += c.Bins[i+1]
	}
	if total != c.N {
		return fmt.Errorf("obs: recorder snapshot bin counts sum to %d, header says %d", total, c.N)
	}
	// Recorded values are int64 nanoseconds; a float beyond that range has
	// no int64 conversion to fold.
	min, max := math.Float64frombits(c.MinBits), math.Float64frombits(c.MaxBits)
	if math.IsNaN(min) || math.IsNaN(max) || min > max || min < 0 || max >= math.MaxInt64 {
		return fmt.Errorf("obs: recorder snapshot with invalid min/max %v/%v", min, max)
	}
	for i := 0; i < len(c.Bins); i += 2 {
		r.counts[c.Bins[i]].Add(c.Bins[i+1])
	}
	r.count.Add(c.N)
	r.sum.Add(sum)
	if m := r.minP1.Load(); m == 0 || int64(min)+1 < m {
		r.minP1.Store(int64(min) + 1)
	}
	if int64(max) > r.max.Load() {
		r.max.Store(int64(max))
	}
	return nil
}
