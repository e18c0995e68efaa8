// Package campaign orchestrates measurement campaigns: running the
// internal/core techniques against thousands of targets concurrently, the
// production-scale generalization of the paper's §IV-B survey (50 hosts,
// 20 days, round-robin). It layers above the probing engine and below the
// CLIs, mirroring the orchestration/engine split of tools like ooni/netem.
//
// The moving parts:
//
//   - Scheduler: a bounded worker pool with a per-job retry budget. A
//     retry re-runs the target's deterministic simulation at once; nothing
//     in a campaign waits on the wall clock.
//   - SpanTable: the one span dispatcher, shared by the pool and the
//     distributed coordinator. Index spans are granted in order under a
//     window above the emit frontier and their completions re-sequenced,
//     so downstream consumers see results in index order regardless of
//     which worker finished first — a reordering buffer for the
//     reordering-measurement campaign.
//   - Target: one unit of work — a host profile, a named path impairment,
//     a measurement technique and a seed. Targets are enumerated as a
//     cross product (profiles × impairments × tests × seeds) or loaded
//     from a targets file.
//   - Aggregator: per-worker shards merged lock-free (each worker owns its
//     shard exclusively) and folded into a Summary with percentile rate
//     statistics from internal/stats at the end of the run.
//   - Sinks: the JSONL and CSV files. Workers render each result's bytes
//     as it completes and the in-order emit writes whole spans, strictly
//     in target-index order, which makes campaign output byte-reproducible
//     for a fixed seed and safe to resume.
//   - Checkpoint: a small JSON file recording how many results have been
//     durably emitted; an interrupted campaign resumes from it and
//     produces output identical to an uninterrupted run.
//
// Every target probe is hermetic: it builds its own simulated scenario
// from the target's seed, so results depend only on the target spec, never
// on scheduling order or worker count.
package campaign

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"reorder/internal/obs"
)

// Config parameterizes a campaign run.
type Config struct {
	// Targets is the work list. See Enumerate and LoadTargets.
	Targets []Target

	// Samples is the per-measurement sample count (default 8).
	Samples int

	// Workers is the worker-pool size (default 16).
	Workers int
	// Retries is the number of additional attempts for a failed target.
	Retries int
	// Deprecated: retries never wait; ignored.
	Backoff time.Duration
	// Window bounds how far dispatch may run ahead of the in-order emit
	// frontier: it caps the stash of completed spans when one slow target
	// holds the frontier, trading sink latency for memory. Zero selects
	// max(64, 4×span×Workers) — see SchedulerConfig.Window.
	Window int
	// Batch is the dispatch span size: workers claim contiguous runs of
	// this many targets at a time and results flush to the sinks in
	// whole pre-encoded batches, so orchestration cost is paid per batch
	// instead of per target (0 = min(32, targets/(2×Workers)); see
	// SchedulerConfig.Batch).
	// Output bytes are identical at any batch size.
	Batch int

	// OutputPath, when set, streams per-target results as JSONL. It is
	// also the replay source when resuming from a checkpoint.
	OutputPath string
	// CSVPath, when set, streams per-target results as CSV.
	CSVPath string

	// CheckpointPath, when set, persists progress every CheckpointEvery
	// emitted results (default 64) and at completion.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in emitted results.
	CheckpointEvery int
	// Resume continues an interrupted campaign from CheckpointPath,
	// replaying the already-emitted prefix of OutputPath into the
	// aggregator and probing only the remainder.
	Resume bool

	// StopAfter, when nonzero, stops cleanly after emitting that many
	// results (checkpointing if configured), leaving the rest for a
	// resumed run. Used to split huge campaigns across windows.
	StopAfter int

	// Progress, when set, is called after each in-order emit.
	Progress func(done, total int)

	// Obs, when set, is the telemetry registry the run reports into:
	// scheduler counters, per-worker probe/sim/netem shards, sink and
	// checkpoint counters, and the live progress frontier. Create it with
	// obs.NewCampaign(workers) using the same worker count; a nil registry
	// disables all instrumentation at the cost of one branch per site.
	// Output bytes are identical with and without a registry.
	Obs *obs.Campaign
	// Trace, when set, receives structured JSONL run-trace events (span
	// lifecycle, retries, checkpoints). The caller owns closing it.
	Trace *obs.Trace
	// Interrupt, when non-nil and closed, quiesces the run gracefully:
	// dispatch stops, in-flight spans drain and emit in order, a final
	// checkpoint is saved, and Run returns the drained prefix's summary
	// with Summary.Interrupted set. A resumed run completes the remainder
	// with byte-identical total output.
	Interrupt <-chan struct{}
}

func (c Config) defaults() Config {
	if c.Samples == 0 {
		c.Samples = 8
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	return c
}

// schedulerConfig maps the campaign-level knobs onto the worker pool.
func (c Config) schedulerConfig() SchedulerConfig {
	return SchedulerConfig{
		Workers: c.Workers,
		Retries: c.Retries,
		Window:  c.Window,
		Batch:   c.Batch,
		Obs:     c.Obs.SchedObs(),
		Quiesce: c.Interrupt,
	}
}

// Run executes the campaign and returns the merged summary. The summary
// and all sink output are deterministic functions of the target list and
// sample count; worker count, batch size and interruptions (with resume)
// do not change a single byte.
func Run(cfg Config) (*Summary, error) {
	cfg = cfg.defaults()
	sched := NewScheduler(cfg.schedulerConfig())
	agg := NewAggregator(sched.Workers())

	// The Emitter owns everything downstream of the emit frontier —
	// resume/replay, sinks, checkpoints, progress — shared verbatim with
	// the distributed coordinator so both modes emit identical bytes.
	em, err := NewEmitter(cfg)
	if err != nil {
		return nil, err
	}
	agg.AddAll(em.Replayed())
	start, end := em.Start(), em.End()

	// Each worker owns one ProbeArena: the scenario and prober are built
	// once and re-seeded per target, which removes scenario construction
	// from the per-target cost without changing a byte of output (arena
	// reuse is observably identical to fresh construction).
	workers := make([]campaignWorker, sched.Workers())
	for i := range workers {
		workers[i].arena = NewProbeArena()
		if cfg.Obs != nil {
			workers[i].arena.SetObserver(cfg.Obs.Worker(i))
		}
	}
	step := NewProbeStep(cfg.Targets, cfg.Samples, cfg.Retries, em.HasJSONL(), em.HasCSV())
	em.StartRun(sched.Workers())

	// The batch pipeline: a worker granted a span checks a spanBatch out of
	// the pool and renders each result into the batch's JSONL/CSV buffers
	// as it completes; the batch rides through the span table as the span's
	// payload, and whichever worker completes the frontier span flushes the
	// contiguous batches with one Write per sink each. Memory is bounded by
	// the dispatch window — at most MaxWindow results are ever
	// probed-but-unemitted — so a million-target campaign holds the same
	// few batches in flight as a thousand-target one.
	pool := &batchPool{}
	table := NewSpanTable(start, end, poolSpanCap, sched.cfg, func(sp Span, b *spanBatch) error {
		if err := em.EmitSpan(sp.Lo, sp.Hi, b.json, b.csv); err != nil {
			return err
		}
		pool.put(b)
		return nil
	})
	err = runPool(sched, table,
		func(worker int, sp Span) *spanBatch {
			b := pool.get()
			b.lo, b.hi = sp.Lo, sp.Hi
			workers[worker].batch = b
			workers[worker].spanSimNs = 0
			cfg.Trace.SpanClaim(worker, sp.Lo, sp.Hi)
			return b
		},
		func(worker, index, attempt int) error {
			w := &workers[worker]
			b := w.batch
			final := step.Attempt(w.arena, index, attempt, &w.res, agg.Shard(worker), &b.json, &b.csv)
			w.spanSimNs += w.arena.LastSimNanos()
			if !final {
				cfg.Trace.Retry(worker, index, attempt, w.arena.LastSimNanos(), w.res.Err)
				return fmt.Errorf("campaign: target %d: %s", index, w.res.Err)
			}
			if index == b.hi-1 {
				cfg.Trace.SpanDone(worker, b.lo, b.hi, w.spanSimNs, int64(len(b.json)+len(b.csv)))
			}
			return nil
		})
	// A quiesced run stopped claiming spans before the cursor reached end;
	// everything in flight drained and emitted in order. Finish persists
	// the exact drain point so a resume continues — and completes — the
	// campaign with byte-identical total output.
	interrupted, err := em.Finish(err)
	if err != nil {
		cfg.Trace.RunEnd(em.Emitted(), interrupted, err.Error())
		return nil, err
	}
	cfg.Trace.RunEnd(em.Emitted(), interrupted, "")
	sum := agg.Summary()
	sum.Interrupted = interrupted
	return sum, nil
}

// campaignWorker is one worker's private probing and rendering state.
type campaignWorker struct {
	arena *ProbeArena
	batch *spanBatch
	// res is the scratch each attempt probes into; a final result leaves
	// only as the batch's rendered bytes and the shard's fold.
	res TargetResult

	// spanSimNs accumulates the current span's simulated time for its
	// trace event (0 without an observer on the arena).
	spanSimNs int64
}

// spanBatch carries one dispatch span's pre-encoded sink bytes from the
// worker that produced them to the in-order emit.
type spanBatch struct {
	lo, hi int
	json   []byte // newline-terminated records, span order
	csv    []byte // encoded rows, span order
}

// batchPool is the free list of spanBatches: one short critical section at
// each end of a span — not per target — is its entire footprint.
type batchPool struct {
	mu   sync.Mutex
	free []*spanBatch
}

// get checks a batch out of the pool, reset for filling.
func (p *batchPool) get() *spanBatch {
	p.mu.Lock()
	var b *spanBatch
	if k := len(p.free); k > 0 {
		b = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		b = &spanBatch{}
	}
	p.mu.Unlock()
	b.json, b.csv = b.json[:0], b.csv[:0]
	return b
}

// put returns an emitted batch to the free list.
func (p *batchPool) put(b *spanBatch) {
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// sinkSet is the campaign's open output files; the emit path writes
// pre-encoded span bytes to them directly.
type sinkSet struct {
	jsonl *JSONLSink
	csv   *CSVSink
}

// openSinks assembles the configured sinks. When resuming, the JSONL file
// — already truncated to exactly the checkpointed records — is opened for
// append, while the CSV file is rebuilt from the replayed prefix: CSV rows
// are not safely line-countable (a quoted field may hold a newline), so
// rewriting is how its content is guaranteed to equal an uninterrupted
// run's. The rows are rendered in parallel and written in order
// (rebuildCSV).
func openSinks(cfg Config, replayed []TargetResult) (sinkSet, error) {
	var sinks sinkSet
	fail := func(err error) (sinkSet, error) {
		sinks.close()
		return sinkSet{}, err
	}
	resuming := len(replayed) > 0
	if cfg.OutputPath != "" {
		flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if resuming {
			flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		f, err := os.OpenFile(cfg.OutputPath, flags, 0o644)
		if err != nil {
			return fail(err)
		}
		sinks.jsonl = NewJSONLSink(f)
	}
	if cfg.CSVPath != "" {
		f, err := os.OpenFile(cfg.CSVPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return fail(err)
		}
		sinks.csv = NewCSVSink(f, hasTopology(cfg.Targets), hasScenario(cfg.Targets))
		if resuming {
			if err := rebuildCSV(sinks.csv, replayed); err != nil {
				return fail(err)
			}
		}
	}
	return sinks, nil
}

// flush flushes both open sinks and returns the first error.
func (s *sinkSet) flush() error { return s.each((*fileSink).Flush) }

// close closes both open sinks and returns the first error.
func (s *sinkSet) close() error { return s.each((*fileSink).Close) }

// each applies op to the open sinks, JSONL first; the CSV sink gets op even
// when the JSONL one failed.
func (s *sinkSet) each(op func(*fileSink) error) error {
	var err error
	if s.jsonl != nil {
		err = op(&s.jsonl.fileSink)
	}
	if s.csv != nil {
		if cerr := op(&s.csv.fileSink); err == nil {
			err = cerr
		}
	}
	return err
}

// hasTopology reports whether any target names a routed-graph topology —
// the predicate deciding the optional CSV topology column. It depends only
// on the target list, so a resumed campaign makes the same choice as the
// original run.
func hasTopology(targets []Target) bool {
	for i := range targets {
		if targets[i].Topology != "" {
			return true
		}
	}
	return false
}

// hasScenario is the scenario-column analogue of hasTopology.
func hasScenario(targets []Target) bool {
	for i := range targets {
		if targets[i].Scenario != "" {
			return true
		}
	}
	return false
}

// WriteTargets emits the target list in the LoadTargets file format; the
// optional fifth (topology) and sixth (scenario) fields appear only on
// targets that need them, with "-" holding an empty topology's place when
// only a scenario is present.
func WriteTargets(w io.Writer, targets []Target) error {
	for _, t := range targets {
		var err error
		switch {
		case t.Scenario != "":
			topo := t.Topology
			if topo == "" {
				topo = "-"
			}
			_, err = fmt.Fprintf(w, "%s %s %s %d %s %s\n", t.Profile, t.Impairment, t.Test, t.Seed, topo, t.Scenario)
		case t.Topology != "":
			_, err = fmt.Fprintf(w, "%s %s %s %d %s\n", t.Profile, t.Impairment, t.Test, t.Seed, t.Topology)
		default:
			_, err = fmt.Fprintf(w, "%s %s %s %d\n", t.Profile, t.Impairment, t.Test, t.Seed)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
