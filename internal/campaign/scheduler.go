package campaign

import (
	"sync"
	"sync/atomic"
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
	// emit frontier. It is what makes the re-sequencing buffer — and any
	// per-index state the caller retains until emit — genuinely bounded
	// when one slow job holds the frontier while thousands of later jobs
	// finish. Zero selects the adaptive window: it starts near 2×Workers
	// and tracks an EWMA of the observed completion spread, growing (up to
	// the old static default, max(4×Workers, 64)) only when stragglers
	// actually scatter completions — so a campaign of uniform-speed
	// targets keeps sink latency low, and one with slow spec-stack
	// targets widens just enough to keep the pool busy.
	Window int
	// Batch is the span size: workers claim [lo,hi) index spans of this
	// many jobs off a shared cursor, so scheduling overhead (cursor
	// claims, completion reports, re-sequencing) is paid per span rather
	// than per job. Zero selects an adaptive size from the run length and
	// worker count; rate-limited runs always dispatch singly so the token
	// bucket stays the pacing authority. Batching never changes outputs —
	// only how work is sliced.
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
// Dispatch is span-granular: workers claim contiguous [lo,hi) spans off an
// atomic cursor and report whole completed spans, so the per-job cost of
// the orchestrator is a few arithmetic operations plus 1/spanSize channel
// operations — the difference between a campaign bottlenecked on channel
// hops and one bottlenecked on the probes themselves.
type Scheduler struct {
	cfg SchedulerConfig

	// maxWindow is the ceiling the (possibly adaptive) window may reach;
	// callers sizing per-index rings use MaxWindow.
	maxWindow int
	// adaptive records whether Window was left to the scheduler.
	adaptive bool

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
	s := &Scheduler{cfg: cfg, now: time.Now, limiter: newTokenBucket(cfg.RatePerSec, float64(cfg.Burst))}
	if cfg.Window <= 0 {
		// Adaptive: cap at the old static default — scaled up when an
		// explicit batch needs the headroom to keep every worker holding
		// a full span — with a floor near 2×Workers so the pool never
		// starves.
		s.adaptive = true
		s.maxWindow = 4 * cfg.Workers
		if s.maxWindow < 64 {
			s.maxWindow = 64
		}
		if cfg.Batch > 0 && s.maxWindow < 2*cfg.Batch*cfg.Workers {
			s.maxWindow = 2 * cfg.Batch * cfg.Workers
		}
	} else {
		if cfg.Window < cfg.Workers {
			cfg.Window = cfg.Workers // never starve the pool
			s.cfg.Window = cfg.Window
		}
		s.maxWindow = cfg.Window
	}
	return s
}

// Workers returns the effective pool size.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// MaxWindow returns the largest value the dispatch window can take during
// a run: callers that keep per-index state until emit (re-sequencing
// rings, pre-encoded batch slots) can size a ring of exactly this many
// entries and never collide.
func (s *Scheduler) MaxWindow() int { return s.maxWindow }

// spanSizeFor returns the dispatch span size for a run of n jobs: the
// configured batch (capped at the window, the progress invariant), or an
// adaptive default sized so a window's worth of spans keeps every worker
// busy; always 1 under rate limiting so the token bucket paces individual
// launches.
func (s *Scheduler) spanSizeFor(n int) int {
	if s.cfg.RatePerSec > 0 {
		return 1
	}
	size := s.cfg.Batch
	if size <= 0 {
		// Adaptive: big enough to amortize the per-span bookkeeping,
		// small enough that a run splits into several spans per worker
		// (tail balance) and the window never idles the pool.
		size = n / (2 * s.cfg.Workers)
		if max := s.maxWindow / s.cfg.Workers; size > max {
			size = max
		}
	}
	if size > s.maxWindow {
		size = s.maxWindow
	}
	if size < 1 {
		size = 1
	}
	return size
}

// span is one claimed slice of the index range.
type span struct{ lo, hi int }

// gate enforces the dispatch window: a worker may run index i only once
// i < frontier+window. The fast path is two atomic loads; workers park on
// the condition variable only when the window is actually exhausted.
//
// The hot atomics are padded onto their own cache lines: every worker
// reads frontier and window before every job while the collector stores
// them after every span, and the claim cursor (dispatchState) is hammered
// by CAS from all workers — sharing a line between any of these (or with
// the mutex word) would turn each store into a fleet-wide invalidation.
type gate struct {
	_        [64]byte
	frontier atomic.Int64 // next index to emit (all before are emitted)
	_        [56]byte
	window   atomic.Int64
	_        [56]byte

	mu      sync.Mutex
	cond    *sync.Cond
	waiting int
	stopped bool

	// obs and now record stall telemetry on the slow path only; the
	// two-atomic-load fast path never touches them.
	obs *obs.Scheduler
	now func() time.Time
}

// dispatchState holds the shared claim cursor on its own cache line.
type dispatchState struct {
	_      [64]byte
	cursor atomic.Int64
	_      [56]byte
}

func newGate(start, window int) *gate {
	g := &gate{}
	g.frontier.Store(int64(start))
	g.window.Store(int64(window))
	g.cond = sync.NewCond(&g.mu)
	return g
}

// wait blocks until index may run (or the run stops, returning false).
func (g *gate) wait(index int) bool {
	if int64(index) < g.frontier.Load()+g.window.Load() {
		return true
	}
	var parkedAt time.Time
	g.mu.Lock()
	for int64(index) >= g.frontier.Load()+g.window.Load() && !g.stopped {
		if g.obs != nil && parkedAt.IsZero() {
			parkedAt = g.now()
			g.obs.WindowStalls.Inc()
		}
		g.waiting++
		g.cond.Wait()
		g.waiting--
	}
	stopped := g.stopped
	g.mu.Unlock()
	if !parkedAt.IsZero() {
		g.obs.WindowStallNanos.AddInt(g.now().Sub(parkedAt).Nanoseconds())
	}
	return !stopped
}

// advance publishes a new frontier (and optionally a new window), waking
// parked workers when any are waiting.
func (g *gate) advance(frontier, window int) {
	g.mu.Lock()
	g.frontier.Store(int64(frontier))
	if window > 0 {
		g.window.Store(int64(window))
	}
	if g.waiting > 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// stop releases every parked worker with a failure indication.
func (g *gate) stop() {
	g.mu.Lock()
	g.stopped = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// RunSpans executes jobs for indices [start, end). job is called as
// job(worker, index, attempt); a non-nil return triggers a retry after
// backoff, up to the configured retry budget, after which the job counts
// as done regardless (the job records its own terminal error). Workers
// claim contiguous index spans off a shared cursor; begin (optional) is
// called on the worker when it claims a span — callers use it to set up
// per-span state such as encode buffers — and emitSpan is called serially
// with each completed span in ascending index order (spans partition
// [start,end), so consecutive calls are contiguous). An emitSpan error
// cancels the run and is returned; a nil emitSpan is allowed when only job
// side effects matter.
func (s *Scheduler) RunSpans(start, end int,
	begin func(worker, lo, hi int),
	job func(worker, index, attempt int) error,
	emitSpan func(lo, hi int) error,
) error {
	if start >= end {
		return nil
	}
	spanSize := s.spanSizeFor(end - start)
	window := s.maxWindow
	minWindow := window
	if s.adaptive {
		minWindow = 2 * s.cfg.Workers
		if minWindow < 16 {
			minWindow = 16
		}
		// A window below a full round of spans would idle workers
		// regardless of spread; start there and grow on evidence.
		if floor := spanSize * s.cfg.Workers; minWindow < floor {
			minWindow = floor
		}
		if minWindow > s.maxWindow {
			minWindow = s.maxWindow
		}
		window = minWindow
	}

	g := newGate(start, window)
	g.obs, g.now = s.cfg.Obs, s.now
	ds := &dispatchState{}
	cursor := &ds.cursor
	cursor.Store(int64(start))
	doneCh := make(chan span, s.cfg.Workers)
	stop := make(chan struct{})
	var stopOnce sync.Once
	cancel := func() {
		stopOnce.Do(func() {
			close(stop)
			g.stop()
		})
	}

	claim := func() (span, bool) {
		select {
		case <-s.cfg.Quiesce:
			return span{}, false // draining: finish in-flight spans only
		default:
		}
		for {
			lo := cursor.Load()
			if lo >= int64(end) {
				return span{}, false
			}
			hi := lo + int64(spanSize)
			// Shrink near the tail so the last few spans spread over
			// the pool instead of parking on one worker.
			if remaining := int64(end) - lo; remaining < int64(spanSize*s.cfg.Workers) {
				size := remaining / int64(s.cfg.Workers)
				if size < 1 {
					size = 1
				}
				hi = lo + size
			}
			if hi > int64(end) {
				hi = int64(end)
			}
			if cursor.CompareAndSwap(lo, hi) {
				if s.cfg.Obs != nil {
					s.cfg.Obs.SpanClaims.Inc()
				}
				return span{int(lo), int(hi)}, true
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sp, ok := claim()
				if !ok {
					return
				}
				if begin != nil {
					begin(worker, sp.lo, sp.hi)
				}
				for i := sp.lo; i < sp.hi; i++ {
					if !g.wait(i) {
						return
					}
					s.runJob(worker, i, job, stop)
					select {
					case <-stop:
						return
					default:
					}
				}
				select {
				case doneCh <- sp:
				case <-stop:
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(doneCh)
	}()

	// Re-sequence completions: workers finish spans in arbitrary order,
	// sinks must see index order. Spans partition the range, so a small
	// list ordered by lo (at most window/spanSize + workers entries)
	// re-sequences them; the gate caps how far execution runs ahead, so
	// the list — and any per-index state the caller retains until emit —
	// stays bounded for any campaign size.
	var pending []span
	next := start
	var emitErr error
	// spreadEwma tracks how far beyond the frontier completed spans land,
	// the dispersion the adaptive window sizes against.
	var spreadEwma float64
	for sp := range doneCh {
		// Insert keeping pending sorted by lo.
		at := len(pending)
		for i, q := range pending {
			if sp.lo < q.lo {
				at = i
				break
			}
		}
		pending = append(pending, span{})
		copy(pending[at+1:], pending[at:])
		pending[at] = sp

		if s.adaptive {
			spread := float64(sp.hi - next)
			spreadEwma += 0.125 * (spread - spreadEwma)
		}

		advanced := false
		for emitErr == nil && len(pending) > 0 && pending[0].lo == next {
			q := pending[0]
			pending = pending[:copy(pending, pending[1:])]
			if emitSpan != nil {
				if err := emitSpan(q.lo, q.hi); err != nil {
					emitErr = err
					cancel()
					break
				}
			}
			next = q.hi
			advanced = true
		}
		if advanced && emitErr == nil {
			if s.adaptive {
				window = clampInt(s.cfg.Workers+2*int(spreadEwma), minWindow, s.maxWindow)
			}
			g.advance(next, window)
		}
	}
	cancel()
	return emitErr
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
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
