package obs

import (
	"fmt"
	"io"
	"math"
)

// promCounter writes one counter metric family in Prometheus text format.
func promCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// promGauge writes one gauge metric family.
func promGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// promSeconds converts a nanosecond counter to a seconds counter family
// (Prometheus convention: durations are seconds).
func promSeconds(w io.Writer, name, help string, ns uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name,
		float64(ns)/1e9)
}

// promRecorders writes recorder shards as one Prometheus histogram family
// with cumulative le buckets in seconds.
func promRecorders(w io.Writer, name, help string, rs ...*Recorder) {
	counts := make([]uint64, recorderBins)
	var sum, n uint64
	for _, r := range rs {
		if r == nil {
			continue
		}
		r.snapshotInto(counts, math.NaN(), math.NaN())
		sum += r.Sum()
		n += r.Count()
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, c := range counts {
		cum += c
		// Bucket i holds [2^(i-1), 2^i) ns, so its inclusive bound is
		// 2^i - 1 ns; skip empty leading buckets past the first to keep the
		// exposition small.
		if c == 0 && i > 0 && cum == 0 {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(uint64(1)<<i-1)/1e9, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, n)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(sum)/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, n)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format. Metric names are stable: dashboards and the CI smoke test key on
// them, so treat them as append-only like the JSONL record.
func (c *Campaign) WritePrometheus(w io.Writer) {
	if c == nil {
		return
	}
	s := c.Snapshot()

	promGauge(w, "campaign_targets_done", "targets emitted in index order so far", float64(s.Done))
	promGauge(w, "campaign_targets_total", "targets in the campaign", float64(s.Total))
	promGauge(w, "campaign_targets_per_second", "EWMA instantaneous emit rate", s.InstRate)
	promGauge(w, "campaign_wall_seconds", "wall time since the run started", s.WallSeconds)

	promCounter(w, "campaign_scheduler_span_claims_total", "dispatch spans claimed off the shared cursor", s.Scheduler.SpanClaims)
	promCounter(w, "campaign_scheduler_window_stalls_total", "workers parked on the dispatch-window gate", s.Scheduler.WindowStalls)
	promSeconds(w, "campaign_scheduler_window_stall_seconds_total", "wall time parked on the window gate", s.Scheduler.WindowStallNanos)
	promCounter(w, "campaign_scheduler_retries_total", "failed attempts that were retried", s.Scheduler.Retries)

	promCounter(w, "campaign_worker_targets_total", "terminal per-target results produced", s.Workers.Targets)
	promCounter(w, "campaign_worker_attempts_total", "probe attempts including retries", s.Workers.Attempts)
	promCounter(w, "campaign_worker_arena_resets_total", "scenario arena reuses", s.Workers.ArenaResets)
	promCounter(w, "campaign_worker_arena_builds_total", "scenario arena first constructions", s.Workers.ArenaBuilds)

	recs := make([]*Recorder, 0, len(c.workers))
	for _, wk := range c.workers {
		recs = append(recs, &wk.ProbeNanos)
	}
	promRecorders(w, "campaign_probe_latency_seconds", "per-target probe wall latency", recs...)

	promCounter(w, "campaign_sim_events_total", "simulation-loop callbacks executed", s.Workers.SimEvents)
	promCounter(w, "campaign_sim_reschedules_total", "in-place timer reschedules", s.Workers.SimReschedules)
	promGauge(w, "campaign_sim_peak_heap_depth", "deepest event heap observed across workers", float64(s.Workers.SimPeakHeap))
	promSeconds(w, "campaign_sim_seconds_total", "simulated virtual time elapsed", s.Workers.SimNanos)

	promCounter(w, "campaign_netem_frames_born_total", "frames entering the simulated network", s.Workers.FramesBorn)
	promCounter(w, "campaign_netem_frames_in_total", "frames accepted by netem elements", s.Workers.FramesIn)
	promCounter(w, "campaign_netem_frames_out_total", "frames forwarded downstream by netem elements", s.Workers.FramesOut)
	promCounter(w, "campaign_netem_frames_dropped_total", "frames dropped (loss, overflow, corruption)", s.Workers.FramesDrop)
	promCounter(w, "campaign_netem_frames_swapped_total", "adjacent-frame exchanges performed", s.Workers.FramesSwap)
	promCounter(w, "campaign_netem_frames_materialized_total", "lazy wire-byte materializations", s.Workers.Materialized)

	fmt.Fprintf(w, "# HELP campaign_sink_batches_total span batches written per sink\n# TYPE campaign_sink_batches_total counter\n")
	fmt.Fprintf(w, "campaign_sink_batches_total{sink=\"jsonl\"} %d\n", s.Sinks.JSONLBatches)
	fmt.Fprintf(w, "campaign_sink_batches_total{sink=\"csv\"} %d\n", s.Sinks.CSVBatches)
	fmt.Fprintf(w, "# HELP campaign_sink_bytes_total bytes written per sink\n# TYPE campaign_sink_bytes_total counter\n")
	fmt.Fprintf(w, "campaign_sink_bytes_total{sink=\"jsonl\"} %d\n", s.Sinks.JSONLBytes)
	fmt.Fprintf(w, "campaign_sink_bytes_total{sink=\"csv\"} %d\n", s.Sinks.CSVBytes)
	promCounter(w, "campaign_checkpoints_total", "checkpoint saves", s.Sinks.Checkpoints)
	promRecorders(w, "campaign_sink_flush_seconds", "sink flush latency before checkpoints", &c.Sinks.FlushNanos)

	promCounter(w, "campaign_dist_reconnects_total", "worker sessions re-established after connection loss", s.Dist.Reconnects)
	promCounter(w, "campaign_dist_respawns_total", "worker processes restarted by the spawn supervisor", s.Dist.Respawns)
	promCounter(w, "campaign_dist_lease_reissues_total", "spans returned to the re-issue queue by worker loss", s.Dist.LeaseReissues)
	promCounter(w, "campaign_dist_accept_retries_total", "temporary accept failures retried by the coordinator", s.Dist.AcceptRetries)
}
