package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/obs"
)

// tracedRound is one turn of the traced run (-trace 1): a pass with the
// program's own telemetry attached (obs registry, run trace into memory,
// and on dist-unix-w2 the counting connection), then an untraced pass to set
// it against, then — dist only — a single-process campaign.Run of the same
// list, the base of dist.efficiency.
func (b *bench) tracedRound(w *workload) error {
	if w.reg == nil {
		w.reg = obs.NewCampaign(b.workers)
	}
	root := b.spans.begin("pass/traced", w.name, 0)
	var buf bytes.Buffer
	tel := telemetry{reg: w.reg, trace: obs.NewTrace(&buf)}
	if w.kind == kindDist {
		tel.wire = &w.wire
	}
	sum, wall, err := b.runPass(w, tel, root)
	if err == nil {
		if err = tel.trace.Flush(); err == nil {
			err = w.verify(sum)
		}
	}
	b.spans.end(root)
	if w.settle("traced pass", err) {
		w.tracedWall = append(w.tracedWall, wall.Seconds())
		res, perr := spanResidence(buf.Bytes())
		if perr != nil {
			return fmt.Errorf("%s: run trace: %w", w.name, perr)
		}
		w.residenceNs = append(w.residenceNs, res...)
	}

	if err := b.timedPass(w); err != nil {
		return err
	}
	if w.kind != kindDist {
		return nil
	}
	root = b.spans.begin("pass/local", w.name, 0)
	defer b.spans.end(root)
	sp := b.spans.begin("campaign.Run", w.name, root)
	start := time.Now()
	sum, err = campaign.Run(b.passConfig(w))
	wall = time.Since(start)
	b.spans.end(sp)
	if err == nil {
		err = w.verify(sum)
	}
	if w.settle("local pass", err) {
		w.localWall = append(w.localWall, wall.Seconds())
	}
	return nil
}

// spanResidence parses a run trace and returns, per span, the wall time
// from its claim (a scheduler claim, or a coordinator lease) to its in-order
// emit — how long a span's results sat in the pipeline.
func spanResidence(trace []byte) ([]int64, error) {
	claimed := map[int]int64{}
	var out []int64
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Ev  string `json:"ev"`
			TNs int64  `json:"t_ns"`
			Lo  int    `json:"lo"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, err
		}
		switch ev.Ev {
		case "span_claim":
			claimed[ev.Lo] = ev.TNs
		case "span_emit":
			if t, ok := claimed[ev.Lo]; ok {
				out = append(out, ev.TNs-t)
				delete(claimed, ev.Lo)
			}
		}
	}
	return out, sc.Err()
}

// reportLayers derives the per-layer metrics of w: exact counts from the
// traced passes' registry, times from the legs, and the budget rows that set
// the two against the end-to-end figures. A metric of a layer the workload
// does not exercise reads 0.
func (b *bench) reportLayers(w *workload, wr *workloadResult) {
	snap := w.reg.Snapshot()
	n := float64(len(w.targets))
	traced := float64(len(w.tracedWall))
	probed := float64(snap.Workers.Targets)
	per := func(v uint64, by float64) float64 {
		if by == 0 {
			return 0
		}
		return float64(v) / by
	}
	count := func(name string, v float64, unit string) { wr.add(name, v, unit, int(traced)) }

	// sim
	eventsPer := per(snap.Workers.SimEvents, probed)
	count("sim.events_per_target", eventsPer, "count")
	count("sim.reschedules_per_target", per(snap.Workers.SimReschedules, probed), "count")
	count("sim.peak_heap", float64(snap.Workers.SimPeakHeap), "count")
	count("sim.virtual_s_per_target", per(snap.Workers.SimNanos, probed)/1e9, "s")
	// netem
	hopsPer := per(snap.Workers.FramesIn, probed)
	count("netem.frames_born_per_target", per(snap.Workers.FramesBorn, probed), "count")
	count("netem.frame_hops_per_target", hopsPer, "count")
	count("netem.drops_per_target", per(snap.Workers.FramesDrop, probed), "count")
	count("netem.swaps_per_target", per(snap.Workers.FramesSwap, probed), "count")
	count("netem.materialized_frac", per(snap.Workers.Materialized, float64(snap.Workers.FramesBorn)), "fraction")
	// simnet
	count("simnet.build_frac", per(snap.Workers.ArenaBuilds, float64(snap.Workers.ArenaBuilds+snap.Workers.ArenaResets)), "fraction")
	// campaign scheduler, sink, checkpoint: per pass, so the figure does not
	// depend on how many traced passes fit in the run.
	tracedWall := summarize(w.tracedWall)
	count("campaign.scheduler.span_claims", per(snap.Scheduler.SpanClaims, traced), "count")
	count("campaign.scheduler.window_stalls", per(snap.Scheduler.WindowStalls, traced), "count")
	stallS := per(snap.Scheduler.WindowStallNanos, traced) / 1e9
	count("campaign.scheduler.window_stall_frac", per(snap.Scheduler.WindowStallNanos, float64(b.workers)*sum(w.tracedWall)*1e9), "fraction")
	count("campaign.scheduler.retries", per(snap.Scheduler.Retries, traced), "count")
	res50, res99 := usQuantile(w.residenceNs, 0.50), usQuantile(w.residenceNs, 0.99)
	wr.add("campaign.span_residence_us_p50", res50, "us", len(w.residenceNs))
	wr.add("campaign.span_residence_us_p99", res99, "us", len(w.residenceNs))
	count("campaign.sink.jsonl_bytes_per_target", per(snap.Sinks.JSONLBytes, probed), "bytes")
	count("campaign.sink.csv_bytes_per_target", per(snap.Sinks.CSVBytes, probed), "bytes")
	savesPer := per(snap.Sinks.Checkpoints, traced)
	count("campaign.checkpoint.saves", savesPer, "count")
	count("campaign.probe.err_frac", float64(w.ref.Errors)/n, "fraction")

	// Sweep latencies by technique.
	byTest := map[string][]int64{}
	var sweepSumNs float64
	for i, t := range w.targets {
		byTest[t.Test] = append(byTest[t.Test], w.latencyNs[i])
		sweepSumNs += float64(w.latencyNs[i])
	}
	sweepMeanUs := sweepSumNs / n / 1e3
	sweepNote := fmt.Sprintf("per-target median over %d readings in %d sweeps", len(w.sweepNs), w.sweeps)
	m := wr.add("campaign.probe.us_p50", usQuantile(w.latencyNs, 0.50), "us", len(w.latencyNs))
	m.Spread, m.Note = summarize(w.sweepP50).spread(), sweepNote
	wr.add("campaign.probe.us_p99", usQuantile(w.latencyNs, 0.99), "us", len(w.latencyNs)).Note = sweepNote
	for _, test := range campaign.Tests {
		wr.add("campaign.probe.us_p50_"+test, usQuantile(byTest[test], 0.5), "us", len(byTest[test]))
	}

	// Process figures from the untraced passes of this run, as clocked: the
	// host reference beside them says what the host was doing.
	wall := summarize(w.wall)
	passes := float64(len(w.wall))
	wr.add("campaign.targets_per_s_raw", safeDiv(n, wall.Q1), "targets/s", wall.N).Spread = wall.spread()
	wr.add("host.ref_ns_per_load", summarize(b.refNs).Q1, "ns", len(b.refNs)).
		Note = fmt.Sprintf("nominal %.0f: host factor %.3f", refNominalNs, b.hostFactor())
	wr.add("obs.overhead_frac", 1-safeDiv(wall.Q1, tracedWall.Q1), "fraction", len(w.tracedWall)).
		Note = fmt.Sprintf("untraced lower-quartile pass %.4fs, traced %.4fs", wall.Q1, tracedWall.Q1)
	wr.add("campaign.cpu_us_per_target", safeDiv(sum(w.cpu), n*passes)*1e6, "us", len(w.wall)).
		Spread = summarize(w.cpu).spread()
	wr.add("campaign.cpu_util", safeDiv(sum(w.cpu), sum(w.wall)*float64(b.host.GOMAXPROCS)), "fraction", len(w.wall))
	wr.add("campaign.heap_peak_mb", float64(w.heapPeak)/(1<<20), "MB", len(w.wall))
	wr.add("campaign.gc_pause_ms", safeDiv(float64(w.gcPauseNs)/1e6, passes), "ms", len(w.wall))

	// dist: zero on the single-process workloads.
	var eff, overhead, wireBytes, msgs, rtt50, rtt99 float64
	var effNote string
	if w.kind == kindDist {
		local := summarize(w.localWall)
		eff = safeDiv(local.Q1, wall.Q1)
		effNote = fmt.Sprintf("%.0f targets/s over %.0f targets/s single-process on the same list", safeDiv(n, wall.Q1), safeDiv(n, local.Q1))
		overhead = distWorkers*wall.Q1/n*1e6 - sweepMeanUs
		wireBytes = safeDiv(float64(w.wire.bytes.Load()), n*traced)
		msgs = per(uint64(w.wire.workerMsgs.Load()+w.wire.coordMsgs.Load()), float64(snap.Scheduler.SpanClaims))
		rtt50, rtt99 = res50, res99
	}
	wr.add("dist.efficiency", eff, "ratio", len(w.localWall)).Note = effNote
	wr.add("dist.overhead_us_per_target", overhead, "us", len(w.wall))
	count("dist.wire_bytes_per_target", wireBytes, "bytes")
	count("dist.msgs_per_span", msgs, "count")
	wr.add("dist.span_rtt_us_p50", rtt50, "us", len(w.residenceNs))
	wr.add("dist.span_rtt_us_p99", rtt99, "us", len(w.residenceNs))

	// Legs: the workload-independent ones, then this workload's own.
	for _, m := range b.legMetrics() {
		wr.metricList = append(wr.metricList, m)
	}
	names := make([]string, 0, len(w.legs))
	for name := range w.legs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wr.metricList = append(wr.metricList, w.legs[name])
	}

	// Budget rows: how much of the measured whole the layer figures leave
	// unexplained. README.md says how to read them.
	leg := func(name string) float64 { return b.legs[name].Value }
	resetUs, eventNs := leg("simnet.reset_us_p2p"), leg("sim.ns_per_event_d8")
	switch {
	case len(w.enum.Topologies) > 0:
		resetUs, eventNs = leg("simnet.reset_us_multihop"), leg("sim.ns_per_event_d256")
	case len(w.enum.Scenarios) > 0:
		resetUs = leg("simnet.reset_us_scenario")
	}
	modelUs := resetUs + (eventsPer*eventNs+hopsPer*leg("netem.link_ns_per_frame")+
		w.legs["tcpsender.segments_per_target"].Value*leg("tcpsender.ns_per_acked_segment"))/1e3
	wr.add("campaign.probe.budget_residual_frac", safeDiv(sweepMeanUs-modelUs, sweepMeanUs), "fraction", len(w.targets)).
		Note = fmt.Sprintf("sweep mean %.2fus, layers account for %.2fus", sweepMeanUs, modelUs)

	workerS := float64(b.workers) * wall.Q1
	if w.kind == kindDist {
		workerS = distWorkers * wall.Q1
	}
	renderS := n * (w.legs["campaign.render.json_ns_per_target"].Value + w.legs["campaign.render.csv_ns_per_target"].Value) / 1e9
	bytesOut := float64(snap.Sinks.JSONLBytes+snap.Sinks.CSVBytes) / max(traced, 1)
	flushS := safeDiv(bytesOut/1e6, w.legs["campaign.sink.flush_mb_per_s"].Value)
	saveS := savesPer * leg("campaign.checkpoint.save_us_p50") / 1e6
	var replayS float64
	if w.kind == kindDurable {
		// Resume k re-reads k windows: 1+2+...+(windows-1) window-lengths.
		replayed := n / resumeWindows * resumeWindows * (resumeWindows - 1) / 2
		replayS = replayed * w.legs["campaign.replay.ns_per_target"].Value / 1e9
	}
	explained := sweepSumNs/1e9 + renderS + flushS + saveS + replayS + stallS
	wr.add("campaign.budget_residual_frac", safeDiv(workerS-explained, workerS), "fraction", len(w.wall)).
		Note = fmt.Sprintf("workers x pass %.4fs; probes %.4fs render %.4fs flush %.4fs saves %.4fs replay %.4fs stall %.4fs",
		workerS, sweepSumNs/1e9, renderS, flushS, saveS, replayS, stallS)

	if traced > 0 {
		wr.Counts = map[string]uint64{
			"sim_events":          snap.Workers.SimEvents / uint64(traced),
			"sim_reschedules":     snap.Workers.SimReschedules / uint64(traced),
			"sim_virtual_ns":      snap.Workers.SimNanos / uint64(traced),
			"frames_born":         snap.Workers.FramesBorn / uint64(traced),
			"frame_hops":          snap.Workers.FramesIn / uint64(traced),
			"frames_dropped":      snap.Workers.FramesDrop / uint64(traced),
			"frames_swapped":      snap.Workers.FramesSwap / uint64(traced),
			"frames_materialized": snap.Workers.Materialized / uint64(traced),
			"probe_attempts":      snap.Workers.Attempts / uint64(traced),
			"jsonl_bytes":         snap.Sinks.JSONLBytes / uint64(traced),
			"csv_bytes":           snap.Sinks.CSVBytes / uint64(traced),
		}
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
