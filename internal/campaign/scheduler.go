package campaign

import (
	"math"
	"sync"
	"time"

	"reorder/internal/obs"
)

// SchedulerConfig tunes the worker pool.
type SchedulerConfig struct {
	// Workers is the pool size (default 16).
	Workers int
	// Retries is how many additional attempts a failing job gets.
	Retries int
	// Backoff is the delay before the first retry; it doubles per
	// subsequent attempt (0 = retry immediately).
	Backoff time.Duration
	// RatePerSec caps job launches per second via a token bucket
	// (0 = unlimited). Each attempt, including retries, takes one token.
	RatePerSec float64
	// Burst is the bucket capacity (default Workers).
	Burst int
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
	// coordinator's leases when retries do not back off; an explicit
	// Window caps it at Window/Workers,
	// and rate-limited runs always dispatch singly so the token bucket
	// stays the pacing authority. Batching never changes outputs — only
	// how work is sliced.
	Batch int
	// Obs, when non-nil, receives scheduler telemetry: span claims, window
	// stalls, retries, backoff and rate-limiter wait time. All counts are
	// off the per-job fast path (per span, per stall, per retry), so an
	// attached registry costs the hot loop nothing measurable.
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

	// limiter paces every attempt the scheduler launches; nil when
	// RatePerSec is unset.
	limiter *tokenBucket

	// sleep and now are wall-clock hooks, replaceable by tests. A nil
	// sleep means real time, waited interruptibly against the run's stop
	// channel; a test-injected sleep is called directly.
	sleep func(time.Duration)
	now   func() time.Time
}

// sleepStop waits d, returning false early if stop closes first.
func (s *Scheduler) sleepStop(d time.Duration, stop <-chan struct{}) bool {
	if s.sleep != nil {
		s.sleep(d)
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-stop:
		return false
	}
}

// NewScheduler returns a scheduler with the given configuration.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Workers
	}
	return &Scheduler{cfg: cfg, now: time.Now, limiter: newTokenBucket(cfg.RatePerSec, float64(cfg.Burst))}
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
// job(worker, index, attempt); a non-nil return triggers a retry after
// backoff, up to the configured retry budget, after which the job counts
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
	t.now = s.now // one clock hook: the table's stall timing follows the scheduler's
	// In-process a run settles with jobs still in flight only by failing,
	// so Done doubles as the signal that aborts their politeness waits.
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
// as worker 0: the rate limit, retry budget and backoff RunSpans applies
// to every index, without its pool, window or ordering. A distributed
// worker, whose dispatch the coordinator owns, probes each leased index
// through it, so the attempt count — part of the output bytes — is decided
// in one place.
func (s *Scheduler) RunIndex(index int, job func(worker, index, attempt int) error) {
	s.runJob(0, index, job, nil)
}

// runJob drives one index through its attempts. Rate-limit and backoff
// waits abort when stop closes, so a cancelled run (emit failure) is not
// held hostage by slow politeness timers; a nil stop never aborts.
func (s *Scheduler) runJob(worker, index int, job func(worker, index, attempt int) error, stop <-chan struct{}) {
	backoff := s.cfg.Backoff
	for attempt := 0; ; attempt++ {
		if !s.limiter.take(s, stop) {
			return
		}
		err := job(worker, index, attempt)
		if err == nil || attempt >= s.cfg.Retries {
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
		if backoff > 0 {
			if !s.sleepStop(backoff, stop) {
				return
			}
			if s.cfg.Obs != nil {
				s.cfg.Obs.BackoffNanos.AddInt(backoff.Nanoseconds())
			}
			backoff *= 2
		}
	}
}

// tokenBucket is a blocking wall-clock rate limiter on the scheduler's
// clock. It starts full; last stays zero until the first take, whose
// oversized refill the burst cap absorbs.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 disables limiting
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

// take blocks until a token is available, waiting through the
// scheduler's interruptible sleep; it returns false if stop closed
// before a token arrived. A nil bucket always succeeds immediately.
func (tb *tokenBucket) take(s *Scheduler, stop <-chan struct{}) bool {
	if tb == nil {
		return true
	}
	for {
		tb.mu.Lock()
		now := s.now()
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
		if tb.tokens >= 1 {
			tb.tokens--
			tb.mu.Unlock()
			return true
		}
		wait := time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
		tb.mu.Unlock()
		if !s.sleepStop(wait, stop) {
			return false
		}
		if s.cfg.Obs != nil {
			s.cfg.Obs.RateWaitNanos.AddInt(wait.Nanoseconds())
		}
	}
}
