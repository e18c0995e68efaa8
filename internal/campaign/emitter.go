package campaign

import (
	"fmt"
	"os"
	"time"
)

// Emitter is the emit side of a campaign: everything downstream of
// the in-order emit frontier — resume/replay, sink lifecycle, checkpoint
// cadence, drain checkpointing, progress and telemetry notification —
// factored out of Run so the distributed coordinator (internal/campaign/
// dist) can merge remote workers' span bytes through exactly the code
// path a single-process run uses. Byte-identity between the two modes is
// not an aspiration but a consequence: there is one emit path.
//
// The caller feeds it contiguous spans in index order via EmitSpan and
// finishes with Finish. Emitter is not safe for concurrent use: its
// contract is serial calls, from any goroutine, each ordered after the
// last — what a SpanTable's emit callback gets.
type Emitter struct {
	cfg        Config
	fp         uint64
	start, end int
	replayed   []TargetResult
	sinks      sinkSet
	ck         Checkpoint
	emitted    int
}

// NewEmitter validates the config, loads the checkpoint and replays the
// emitted prefix when resuming, opens the sinks, and computes the run's
// [Start, End) probe range. The replayed results are exposed via Replayed
// so the caller can fold them into its aggregator (Aggregator.AddAll) —
// the emitter does not own aggregation, only emission.
func NewEmitter(cfg Config) (*Emitter, error) {
	cfg = cfg.defaults()
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("campaign: no targets")
	}
	fp := Fingerprint(cfg.Targets, cfg.Samples)
	start := 0
	var replayed []TargetResult
	if cfg.Resume && cfg.CheckpointPath == "" {
		// Without this guard a forgotten -checkpoint would silently fall
		// through to a fresh run and truncate the prior output.
		return nil, fmt.Errorf("campaign: Resume requires CheckpointPath")
	}
	if cfg.Resume {
		ck, err := LoadCheckpoint(cfg.CheckpointPath)
		if err == nil {
			if ck.Fingerprint != fp {
				return nil, fmt.Errorf("campaign: checkpoint %s is for a different campaign (fingerprint %x != %x)",
					cfg.CheckpointPath, ck.Fingerprint, fp)
			}
			// Checked before anything is sized from it: the file is input.
			if ck.Done > len(cfg.Targets) {
				return nil, fmt.Errorf("campaign: checkpoint %s says %d results emitted but the campaign has %d targets",
					cfg.CheckpointPath, ck.Done, len(cfg.Targets))
			}
			replayed, err = replayOutput(cfg.OutputPath, cfg.Targets, ck.Done)
			if err != nil {
				return nil, err
			}
			start = ck.Done
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}
	sinks, err := openSinks(cfg, replayed)
	if err != nil {
		return nil, err
	}
	end := len(cfg.Targets)
	if cfg.StopAfter > 0 && start+cfg.StopAfter < end {
		end = start + cfg.StopAfter
	}
	return &Emitter{
		cfg:      cfg,
		fp:       fp,
		start:    start,
		end:      end,
		replayed: replayed,
		sinks:    sinks,
		ck:       Checkpoint{Fingerprint: fp, Done: start},
		emitted:  start,
	}, nil
}

// Start returns the first index to probe (0, or the checkpointed frontier
// when resuming).
func (e *Emitter) Start() int { return e.start }

// End returns the exclusive end of the probe range (the target count,
// clamped by StopAfter).
func (e *Emitter) End() int { return e.end }

// Emitted returns the in-order emit frontier.
func (e *Emitter) Emitted() int { return e.emitted }

// Fingerprint returns the campaign config fingerprint (targets + samples).
func (e *Emitter) Fingerprint() uint64 { return e.fp }

// Samples returns the effective per-measurement sample count (the
// configured value with the campaign default applied) — what remote
// workers must probe with for their fingerprints to match.
func (e *Emitter) Samples() int { return e.cfg.Samples }

// Replayed returns the results replayed from the output prefix on resume,
// in index order.
func (e *Emitter) Replayed() []TargetResult { return e.replayed }

// HasJSONL reports whether a JSONL sink is configured — whether EmitSpan
// expects rendered JSONL bytes.
func (e *Emitter) HasJSONL() bool { return e.sinks.jsonl != nil }

// HasCSV reports whether a CSV sink is configured.
func (e *Emitter) HasCSV() bool { return e.sinks.csv != nil }

// StartRun announces the run to the telemetry registry and trace.
func (e *Emitter) StartRun(workers int) {
	e.cfg.Obs.StartRun(e.start, len(e.cfg.Targets))
	e.cfg.Trace.RunStart(len(e.cfg.Targets), workers, e.start)
}

// EmitSpan emits one contiguous span's pre-rendered bytes: jsonb is the
// span's newline-terminated JSONL records and csvb its encoded CSV rows,
// both in index order (either may be nil when the matching sink is not
// configured). Spans must arrive exactly at the frontier — the span
// table's in-order drain guarantees this, and the check makes a violation
// loud rather than a silent output corruption.
func (e *Emitter) EmitSpan(lo, hi int, jsonb, csvb []byte) error {
	if lo != e.emitted || hi < lo {
		return fmt.Errorf("campaign: internal: emit of span [%d,%d) at frontier %d", lo, hi, e.emitted)
	}
	if e.sinks.jsonl != nil {
		if err := e.sinks.jsonl.EmitBatch(jsonb); err != nil {
			return err
		}
		if e.cfg.Obs != nil {
			e.cfg.Obs.Sinks.JSONLBatches.Inc()
			e.cfg.Obs.Sinks.JSONLBytes.Add(uint64(len(jsonb)))
		}
	}
	if e.sinks.csv != nil {
		if err := e.sinks.csv.EmitBatch(csvb); err != nil {
			return err
		}
		if e.cfg.Obs != nil {
			e.cfg.Obs.Sinks.CSVBatches.Inc()
			e.cfg.Obs.Sinks.CSVBytes.Add(uint64(len(csvb)))
		}
	}
	prev := e.emitted
	e.emitted = hi
	e.cfg.Trace.SpanEmit(lo, hi, e.emitted)
	if e.cfg.CheckpointPath != "" &&
		(e.emitted/e.cfg.CheckpointEvery > prev/e.cfg.CheckpointEvery || e.emitted == e.end) {
		// Flush first: a checkpoint must never acknowledge results still
		// sitting in a sink buffer, or a crash here would leave the output
		// behind the checkpoint and the campaign unresumable. Checkpoints
		// are batch-granular — one save per crossed CheckpointEvery
		// boundary — with the exact final count preserved.
		flushStart := time.Now()
		if err := e.sinks.flush(); err != nil {
			return err
		}
		e.ck.Done = e.emitted
		if err := e.ck.Save(e.cfg.CheckpointPath); err != nil {
			return err
		}
		flushNs := time.Since(flushStart).Nanoseconds()
		if e.cfg.Obs != nil {
			e.cfg.Obs.Sinks.FlushNanos.Observe(flushNs)
			e.cfg.Obs.Sinks.Checkpoints.Inc()
		}
		e.cfg.Trace.Checkpoint(e.emitted, flushNs)
	}
	e.cfg.Obs.NoteProgress(e.emitted, len(e.cfg.Targets))
	if e.cfg.Progress != nil {
		e.cfg.Progress(e.emitted, len(e.cfg.Targets))
	}
	return nil
}

// Finish resolves the run's end state and closes the sinks. A quiesced run
// stopped short of End with runErr nil and the Interrupt channel closed;
// Finish persists the exact drain point so a resume continues — and
// completes — the campaign with byte-identical total output. Close errors
// matter even on the success path: the final buffered results reach disk
// during Close, and a full disk must not yield a successful report over a
// truncated output file.
func (e *Emitter) Finish(runErr error) (interrupted bool, err error) {
	err = runErr
	if e.cfg.Interrupt != nil && err == nil && e.emitted < e.end {
		select {
		case <-e.cfg.Interrupt:
			interrupted = true
		default:
		}
	}
	if interrupted {
		e.cfg.Obs.NoteQuiesce()
		e.cfg.Trace.Quiesce(e.emitted)
		if e.cfg.CheckpointPath != "" && e.ck.Done != e.emitted {
			if ferr := e.sinks.flush(); err == nil {
				err = ferr
			}
			if err == nil {
				e.ck.Done = e.emitted
				err = e.ck.Save(e.cfg.CheckpointPath)
			}
		}
	}
	closeErr := e.sinks.close()
	if err == nil {
		err = closeErr
	}
	return interrupted, err
}
