package obs

import (
	"fmt"
	"io"
	"time"

	"reorder/internal/stats"
)

// LatencySummary reduces a merged latency recorder for reporting: exact
// count/min/max, octave-resolution mean and quantiles, all in nanoseconds.
type LatencySummary struct {
	Count uint64  `json:"count"`
	MinNs float64 `json:"min_ns"`
	P50Ns float64 `json:"p50_ns"`
	P90Ns float64 `json:"p90_ns"`
	P99Ns float64 `json:"p99_ns"`
	MaxNs float64 `json:"max_ns"`
	SumNs uint64  `json:"sum_ns"`
}

func summarizeLatency(h *stats.Histogram, sum uint64) LatencySummary {
	if h == nil || h.Count() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: uint64(h.Count()),
		MinNs: h.Min(), MaxNs: h.Max(),
		P50Ns: h.Quantile(0.50), P90Ns: h.Quantile(0.90), P99Ns: h.Quantile(0.99),
		SumNs: sum,
	}
}

// SchedulerSnapshot is the scheduler block of a Snapshot.
type SchedulerSnapshot struct {
	SpanClaims       uint64 `json:"span_claims"`
	WindowStalls     uint64 `json:"window_stalls"`
	WindowStallNanos uint64 `json:"window_stall_ns"`
	Retries          uint64 `json:"retries"`
	Quiesces         uint64 `json:"quiesces"`
}

// WorkerTotals sums every worker shard.
type WorkerTotals struct {
	Targets        uint64 `json:"targets"`
	Attempts       uint64 `json:"attempts"`
	ArenaResets    uint64 `json:"arena_resets"`
	ArenaBuilds    uint64 `json:"arena_builds"`
	SimEvents      uint64 `json:"sim_events"`
	SimReschedules uint64 `json:"sim_reschedules"`
	SimPeakHeap    int64  `json:"sim_peak_heap"`
	SimNanos       uint64 `json:"sim_ns"`
	FramesIn       uint64 `json:"frames_in"`
	FramesOut      uint64 `json:"frames_out"`
	FramesDrop     uint64 `json:"frames_dropped"`
	FramesSwap     uint64 `json:"frames_swapped"`
	FramesBorn     uint64 `json:"frames_born"`
	Materialized   uint64 `json:"frames_materialized"`
	RenderedJSON   uint64 `json:"rendered_json_bytes"`
	RenderedCSV    uint64 `json:"rendered_csv_bytes"`
}

// DistSnapshot is the distributed-plane block of a Snapshot: self-healing
// events (all zero for a single-process run).
type DistSnapshot struct {
	Reconnects    uint64 `json:"reconnects"`
	Respawns      uint64 `json:"respawns"`
	LeaseReissues uint64 `json:"lease_reissues"`
	AcceptRetries uint64 `json:"accept_retries"`
}

func (d DistSnapshot) any() bool {
	return d.Reconnects|d.Respawns|d.LeaseReissues|d.AcceptRetries != 0
}

// SinksSnapshot is the sink/checkpoint block of a Snapshot.
type SinksSnapshot struct {
	JSONLBatches uint64         `json:"jsonl_batches"`
	JSONLBytes   uint64         `json:"jsonl_bytes"`
	CSVBatches   uint64         `json:"csv_batches"`
	CSVBytes     uint64         `json:"csv_bytes"`
	Checkpoints  uint64         `json:"checkpoints"`
	Flush        LatencySummary `json:"flush"`
}

// Snapshot is one consistent-enough scrape of the registry: every field is
// loaded once, shards are merged, and the result is a plain value safe to
// encode, diff or store. "Consistent enough" means each counter is
// individually race-free and monotonic; counters read microseconds apart
// may straddle a target, which mid-flight introspection tolerates and the
// end-of-run snapshot (all workers quiesced) does not exhibit.
type Snapshot struct {
	WallSeconds float64 `json:"wall_seconds"`
	Done        int64   `json:"done"`
	Total       int64   `json:"total"`
	AvgRate     float64 `json:"targets_per_sec_avg"`
	InstRate    float64 `json:"targets_per_sec_inst"`

	Scheduler    SchedulerSnapshot `json:"scheduler"`
	Workers      WorkerTotals      `json:"workers"`
	ProbeLatency LatencySummary    `json:"probe_latency"`
	Sinks        SinksSnapshot     `json:"sinks"`
	Dist         DistSnapshot      `json:"dist"`
}

// Snapshot scrapes the registry. Nil-safe: a nil registry yields a zero
// snapshot.
func (c *Campaign) Snapshot() Snapshot {
	var s Snapshot
	if c == nil {
		return s
	}
	s.Scheduler = SchedulerSnapshot{
		SpanClaims:       c.Sched.SpanClaims.Load(),
		WindowStalls:     c.Sched.WindowStalls.Load(),
		WindowStallNanos: c.Sched.WindowStallNanos.Load(),
		Retries:          c.Sched.Retries.Load(),
		Quiesces:         c.Sched.Quiesces.Load(),
	}
	recs := make([]*Recorder, 0, len(c.workers))
	var probeSum uint64
	for _, w := range c.workers {
		s.Workers.Targets += w.Targets.Load()
		s.Workers.Attempts += w.Attempts.Load()
		s.Workers.ArenaResets += w.ArenaResets.Load()
		s.Workers.ArenaBuilds += w.ArenaBuilds.Load()
		s.Workers.SimEvents += w.SimEvents.Load()
		s.Workers.SimReschedules += w.SimReschedules.Load()
		if p := w.SimPeakHeap.Load(); p > s.Workers.SimPeakHeap {
			s.Workers.SimPeakHeap = p
		}
		s.Workers.SimNanos += w.SimNanos.Load()
		s.Workers.FramesIn += w.FramesIn.Load()
		s.Workers.FramesOut += w.FramesOut.Load()
		s.Workers.FramesDrop += w.FramesDrop.Load()
		s.Workers.FramesSwap += w.FramesSwap.Load()
		s.Workers.FramesBorn += w.FramesBorn.Load()
		s.Workers.Materialized += w.Materialized.Load()
		s.Workers.RenderedJSON += w.RenderedJSONBytes.Load()
		s.Workers.RenderedCSV += w.RenderedCSVBytes.Load()
		recs = append(recs, &w.ProbeNanos)
		probeSum += w.ProbeNanos.Sum()
	}
	s.ProbeLatency = summarizeLatency(MergeRecorders(recs...), probeSum)
	s.Sinks = SinksSnapshot{
		JSONLBatches: c.Sinks.JSONLBatches.Load(),
		JSONLBytes:   c.Sinks.JSONLBytes.Load(),
		CSVBatches:   c.Sinks.CSVBatches.Load(),
		CSVBytes:     c.Sinks.CSVBytes.Load(),
		Checkpoints:  c.Sinks.Checkpoints.Load(),
		Flush:        summarizeLatency(MergeRecorders(&c.Sinks.FlushNanos), c.Sinks.FlushNanos.Sum()),
	}
	s.Dist = DistSnapshot{
		Reconnects:    c.Dist.Reconnects.Load(),
		Respawns:      c.Dist.Respawns.Load(),
		LeaseReissues: c.Dist.LeaseReissues.Load(),
		AcceptRetries: c.Dist.AcceptRetries.Load(),
	}
	s.Done, s.Total, s.InstRate = c.Progress()
	if !c.startWall.IsZero() {
		if wall := c.now().Sub(c.startWall).Seconds(); wall > 0 {
			s.WallSeconds = wall
			s.AvgRate = float64(s.Done) / wall
		}
	}
	return s
}

// ProbeLatencyHistogram merges the per-worker probe-latency shards into one
// mergeable histogram — the mid-flight summary form campaignd-style
// consumers federate across processes. Nil when nothing was observed.
func (c *Campaign) ProbeLatencyHistogram() *stats.Histogram {
	if c == nil {
		return nil
	}
	recs := make([]*Recorder, 0, len(c.workers))
	for _, w := range c.workers {
		recs = append(recs, &w.ProbeNanos)
	}
	return MergeRecorders(recs...)
}

// fmtNs renders nanoseconds as a human duration.
func fmtNs(ns float64) string {
	return time.Duration(ns).Round(100 * time.Nanosecond).String()
}

// WriteText renders the snapshot as the CLI's -stats report: one compact
// block per layer, mirroring the metric families /metrics exposes.
func (s Snapshot) WriteText(w io.Writer) {
	fmt.Fprintf(w, "telemetry: %d/%d targets in %.2fs (avg %.0f/s, inst %.0f/s)\n",
		s.Done, s.Total, s.WallSeconds, s.AvgRate, s.InstRate)
	fmt.Fprintf(w, "scheduler: %d span claims, %d window stalls (%v parked), %d retries\n",
		s.Scheduler.SpanClaims, s.Scheduler.WindowStalls,
		time.Duration(s.Scheduler.WindowStallNanos), s.Scheduler.Retries)
	if s.ProbeLatency.Count > 0 {
		fmt.Fprintf(w, "probe latency: p50=%s p90=%s p99=%s max=%s (n=%d, %d attempts)\n",
			fmtNs(s.ProbeLatency.P50Ns), fmtNs(s.ProbeLatency.P90Ns),
			fmtNs(s.ProbeLatency.P99Ns), fmtNs(s.ProbeLatency.MaxNs),
			s.ProbeLatency.Count, s.Workers.Attempts)
	}
	fmt.Fprintf(w, "sim: %d events, %d reschedules, peak heap %d, %v simulated\n",
		s.Workers.SimEvents, s.Workers.SimReschedules,
		s.Workers.SimPeakHeap, time.Duration(s.Workers.SimNanos))
	fmt.Fprintf(w, "netem: %d frames born, %d in, %d out, %d dropped, %d swapped, %d materialized\n",
		s.Workers.FramesBorn, s.Workers.FramesIn, s.Workers.FramesOut,
		s.Workers.FramesDrop, s.Workers.FramesSwap, s.Workers.Materialized)
	fmt.Fprintf(w, "arenas: %d builds, %d resets\n", s.Workers.ArenaBuilds, s.Workers.ArenaResets)
	fmt.Fprintf(w, "sinks: jsonl %d batches/%d bytes, csv %d batches/%d bytes, %d checkpoints",
		s.Sinks.JSONLBatches, s.Sinks.JSONLBytes, s.Sinks.CSVBatches, s.Sinks.CSVBytes,
		s.Sinks.Checkpoints)
	if s.Sinks.Flush.Count > 0 {
		fmt.Fprintf(w, ", flush p99=%s", fmtNs(s.Sinks.Flush.P99Ns))
	}
	fmt.Fprintln(w)
	// Only distributed runs that actually healed something print the dist
	// line, keeping single-process -stats output byte-stable.
	if s.Dist.any() {
		fmt.Fprintf(w, "dist: %d reconnects, %d respawns, %d lease re-issues, %d accept retries\n",
			s.Dist.Reconnects, s.Dist.Respawns, s.Dist.LeaseReissues, s.Dist.AcceptRetries)
	}
}
