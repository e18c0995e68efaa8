package campaign

import (
	"math"
	"sync"

	"reorder/internal/obs"
)

// SchedulerConfig tunes the worker pool.
type SchedulerConfig struct {
	// Workers is the pool size (default 16).
	Workers int
	// Retries is how many additional attempts a failing job gets. A retry
	// runs at once: an attempt re-runs a deterministic simulation, so
	// there is no remote end to wait for.
	Retries int
	// Window bounds how far job execution may run ahead of the in-order
	// emit frontier: a span is granted only while it fits under
	// frontier+Window. It is what makes the stash of completed spans — and
	// any per-index state the caller retains until emit — genuinely bounded
	// when one slow job holds the frontier while thousands of later jobs
	// finish. Zero selects max(64, 4×span×Workers); see dispatch, the one
	// rule that resolves Window and Batch.
	Window int
	// Batch is the span size: workers are granted [lo,hi) index spans of
	// this many jobs, so scheduling overhead (grant, completion, in-order
	// drain) is paid per span rather than per job. Zero selects
	// min(32, n/(2×Workers)) — min(512, …) for the distributed
	// coordinator's leases; an explicit Window caps it at Window/Workers.
	// Batching never changes outputs — only how work is sliced.
	Batch int
	// Obs, when non-nil, receives scheduler telemetry: span claims, window
	// stalls and retries. All counts are off the per-job fast path (per
	// span, per stall, per retry), so an attached registry costs the hot
	// loop nothing measurable.
	Obs *obs.Scheduler
	// Quiesce, when non-nil and closed, stops dispatch gracefully: no new
	// spans are claimed, in-flight spans finish and emit in order, and the
	// run returns nil. Callers distinguish a quiesced run from a completed
	// one by how far the emit frontier got.
	Quiesce <-chan struct{}
}

// DefaultWorkers is the pool size when SchedulerConfig.Workers is zero.
const DefaultWorkers = 16

// Scheduler runs indexed jobs through a bounded worker pool and delivers
// completions strictly in index order. Job side effects keyed by index (or
// by worker, for sharded aggregation) need no locking: each index is
// processed by exactly one worker, and the emit callbacks run serially.
//
// Dispatch is span-granular and lives in SpanTable: a worker takes the
// table's lock once to be granted a contiguous [lo,hi) span and once to
// complete it, and the worker that completes the span at the emit frontier
// emits it itself — so the per-job cost of the orchestrator is a few
// arithmetic operations plus 2/spanSize short critical sections, with no
// hand-off to a collector goroutine.
type Scheduler struct {
	cfg SchedulerConfig
}

// NewScheduler returns a scheduler with the given configuration.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	return &Scheduler{cfg: cfg}
}

// Workers returns the effective pool size.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// MaxWindow returns the largest dispatch window a run of any length can
// get: callers that keep per-index state until emit (re-sequencing rings,
// pre-encoded batch slots) can size a ring of exactly this many entries and
// never collide.
func (s *Scheduler) MaxWindow() int {
	_, window := s.cfg.dispatch(math.MaxInt, poolSpanCap)
	return window
}

// RunSpans executes jobs for indices [start, end). job is called as
// job(worker, index, attempt); a non-nil return triggers an immediate
// retry, up to the configured retry budget, after which the job counts
// as done regardless (the job records its own terminal error). Workers are
// granted contiguous index spans by a SpanTable; begin (optional) is called
// on the worker when it is granted a span — callers use it to set up
// per-span state such as encode buffers — and emitSpan is called serially,
// by whichever worker completed the span at the emit frontier, with each
// completed span in ascending index order (spans partition [start,end), so
// consecutive calls are contiguous). An emitSpan error cancels the run and
// is returned; a nil emitSpan is allowed when only job side effects matter.
func (s *Scheduler) RunSpans(start, end int,
	begin func(worker, lo, hi int),
	job func(worker, index, attempt int) error,
	emitSpan func(lo, hi int) error,
) error {
	t := NewSpanTable(start, end, poolSpanCap, s.cfg, func(sp Span, _ struct{}) error {
		if emitSpan == nil {
			return nil
		}
		return emitSpan(sp.Lo, sp.Hi)
	})
	return runPool(s, t, func(worker int, sp Span) struct{} {
		if begin != nil {
			begin(worker, sp.Lo, sp.Hi)
		}
		return struct{}{}
	}, job)
}

// runPool drives t to its end with s's worker pool: each worker loops
// grant, begin, every index of the span through runJob, complete — begin's
// return value is the span's payload, handed to t's emit when the span's
// turn comes. It returns once every worker has, with the run's failure.
func runPool[P any](s *Scheduler, t *SpanTable[P],
	begin func(worker int, sp Span) P,
	job func(worker, index, attempt int) error,
) error {
	// In-process a run settles with jobs still in flight only by failing,
	// so Done doubles as the signal that ends their retries.
	stop := t.Done()
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				sp, ok := t.Grant(worker)
				if !ok {
					return
				}
				p := begin(worker, sp)
				for i := sp.Lo; i < sp.Hi; i++ {
					s.runJob(worker, i, job, stop)
					select {
					case <-stop:
						return
					default:
					}
				}
				t.Complete(sp, p)
			}
		}(w)
	}
	wg.Wait()
	return t.Wait()
}

// RunIndex drives one index through its attempts on the calling goroutine,
// as worker 0: the retry budget RunSpans applies to every index, without
// its pool, window or ordering. A distributed worker, whose dispatch the
// coordinator owns, probes each leased index through it, so the attempt
// count — part of the output bytes — is decided in one place.
func (s *Scheduler) RunIndex(index int, job func(worker, index, attempt int) error) {
	s.runJob(0, index, job, nil)
}

// runJob drives one index through its attempts, retrying at once until
// one succeeds or the budget is spent. It stops retrying once stop closes,
// so a cancelled run (emit failure) does not spend a failing job's whole
// budget; a nil stop never closes.
func (s *Scheduler) runJob(worker, index int, job func(worker, index, attempt int) error, stop <-chan struct{}) {
	for attempt := 0; ; attempt++ {
		if job(worker, index, attempt) == nil || attempt >= s.cfg.Retries {
			return
		}
		select {
		case <-stop:
			return
		default:
		}
		if s.cfg.Obs != nil {
			s.cfg.Obs.Retries.Inc()
		}
	}
}
