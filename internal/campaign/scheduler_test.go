package campaign

import (
	"errors"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reorder/internal/obs"
)

// perIndex adapts a per-index emit callback to RunSpans' span form.
func perIndex(emit func(index int) error) func(lo, hi int) error {
	return func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestSchedulerOrderedEmit checks that completions are re-sequenced into
// strict index order regardless of worker interleaving.
func TestSchedulerOrderedEmit(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 8})
	const n = 100
	var mu sync.Mutex
	done := make([]bool, n)
	var emitted []int
	err := s.RunSpans(0, n, nil,
		func(worker, index, attempt int) error {
			// Uneven simulated work so completion order scrambles.
			time.Sleep(time.Duration(index%7) * time.Millisecond / 4)
			mu.Lock()
			done[index] = true
			mu.Unlock()
			return nil
		},
		perIndex(func(index int) error {
			if !done[index] {
				t.Errorf("emit(%d) before its job finished", index)
			}
			emitted = append(emitted, index)
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != n {
		t.Fatalf("emitted %d of %d", len(emitted), n)
	}
	for i, v := range emitted {
		if v != i {
			t.Fatalf("emit order broken at %d: got %d", i, v)
		}
	}
}

// TestSchedulerRetryBackoff checks the retry budget: a failing job is
// re-run at once with the next attempt number until one succeeds, and each
// retry is counted. Nothing in the loop reads a clock.
func TestSchedulerRetryBackoff(t *testing.T) {
	var so obs.Scheduler
	s := NewScheduler(SchedulerConfig{Workers: 1, Retries: 3, Obs: &so})
	var attempts []int
	err := s.RunSpans(0, 1, nil,
		func(worker, index, attempt int) error {
			attempts = append(attempts, attempt)
			if attempt < 2 {
				return errors.New("transient")
			}
			return nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(attempts, []int{0, 1, 2}) {
		t.Fatalf("attempts = %v, want [0 1 2]", attempts)
	}
	if got := so.Retries.Load(); got != 2 {
		t.Fatalf("retries counted = %d, want 2", got)
	}
}

// TestSchedulerRetriesExhausted checks that a job failing every attempt
// still counts as done and the run completes.
func TestSchedulerRetriesExhausted(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, Retries: 2})
	attempts := make([]int, 3)
	emitted := 0
	err := s.RunSpans(0, 3, nil,
		func(worker, index, attempt int) error {
			attempts[index]++
			return errors.New("always fails")
		},
		perIndex(func(index int) error { emitted++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 3 {
		t.Fatalf("emitted = %d, want 3", emitted)
	}
	for i, a := range attempts {
		if a != 3 {
			t.Fatalf("job %d ran %d attempts, want 3", i, a)
		}
	}
}

// noBegin is runPool's begin for tests that keep no per-span state.
func noBegin(int, Span) struct{} { return struct{}{} }

// heldFrontier runs [0,100) on four workers under a window of 8 (spans of
// 2) with index 0 blocked, and returns once the other three workers have
// run everything the window admits and are parked in Grant. The caller
// decides what happens next and closes release; run returns the indices
// emitted and runPool's result.
func heldFrontier(t *testing.T, cfg SchedulerConfig, emitErr error) (release chan struct{}, run func() (emitted int, err error)) {
	const window = 8
	cfg.Workers, cfg.Window = 4, window
	s := NewScheduler(cfg)
	release = make(chan struct{})
	var maxStarted atomic.Int64
	emitted := 0
	tb := NewSpanTable(0, 100, poolSpanCap, s.cfg, func(sp Span, _ struct{}) error {
		emitted += sp.Hi - sp.Lo
		return emitErr
	})
	result := make(chan error)
	go func() {
		result <- runPool(s, tb, noBegin, func(worker, index, attempt int) error {
			for {
				cur := maxStarted.Load()
				if int64(index) <= cur || maxStarted.CompareAndSwap(cur, int64(index)) {
					break
				}
			}
			if index == 0 {
				<-release // hold the emit frontier
			}
			return nil
		})
	}()
	awaitParked(tb, 3)
	if got := maxStarted.Load(); got != window-1 {
		t.Errorf("execution reached index %d with the frontier held at 0; window is %d", got, window)
	}
	return release, func() (int, error) { err := <-result; return emitted, err }
}

// TestSchedulerDispatchWindow checks the bounded re-sequencing contract:
// while a slow job holds the emit frontier, job execution runs exactly
// Window indices ahead and no further, so completed-but-unemitted state
// (and any per-index ring the caller keys on MaxWindow) stays bounded.
func TestSchedulerDispatchWindow(t *testing.T) {
	release, run := heldFrontier(t, SchedulerConfig{}, nil)
	close(release)
	if emitted, err := run(); err != nil || emitted != 100 {
		t.Fatalf("err %v, emitted %d of 100", err, emitted)
	}
}

// TestSchedulerEmitErrorWithParkedWorkers fails the emit of the frontier
// span while the rest of the pool is parked in Grant: the error surfaces
// and every worker returns (runPool joins them all before it does).
func TestSchedulerEmitErrorWithParkedWorkers(t *testing.T) {
	sentinel := errors.New("sink full")
	release, run := heldFrontier(t, SchedulerConfig{}, sentinel)
	close(release)
	if emitted, err := run(); !errors.Is(err, sentinel) || emitted != 2 {
		t.Fatalf("err %v after %d emitted, want %v after the frontier span's 2", err, emitted, sentinel)
	}
}

// TestSchedulerQuiesceWithParkedWorkers closes Quiesce while one worker
// holds the frontier span and the rest are parked in Grant. Nothing wakes
// them until that span completes; then it and the three stashed behind it
// emit, no further span is granted, and every worker returns.
func TestSchedulerQuiesceWithParkedWorkers(t *testing.T) {
	quiesce := make(chan struct{})
	release, run := heldFrontier(t, SchedulerConfig{Quiesce: quiesce}, nil)
	close(quiesce)
	close(release)
	if emitted, err := run(); err != nil || emitted != 8 {
		t.Fatalf("err %v, emitted %d; want the window's 8 indices and no more", err, emitted)
	}
}

// TestSchedulerEmitError checks that an emit failure cancels the run and
// surfaces the error.
func TestSchedulerEmitError(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4})
	sentinel := errors.New("sink full")
	err := s.RunSpans(0, 64, nil,
		func(worker, index, attempt int) error { return nil },
		perIndex(func(index int) error {
			if index == 5 {
				return sentinel
			}
			return nil
		}))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
}

// TestSchedulerEmitErrorMidBatch checks cancellation when the emit error
// is raised partway through a span's indices: the error must surface, and
// workers mid-span (including ones parked on the window gate) must unwind
// promptly instead of finishing the campaign.
func TestSchedulerEmitErrorMidBatch(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4, Batch: 8})
	sentinel := errors.New("sink full mid-batch")
	var jobs atomic.Int64
	began := time.Now()
	err := s.RunSpans(0, 10_000, nil,
		func(worker, index, attempt int) error {
			jobs.Add(1)
			return nil
		},
		perIndex(func(index int) error {
			if index == 13 { // mid-span for every batch size > 1
				return sentinel
			}
			return nil
		}))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if elapsed := time.Since(began); elapsed > 5*time.Second {
		t.Fatalf("mid-batch cancel took %v", elapsed)
	}
	// The window bounds how much work can have been dispatched past the
	// failed emit; a full run would be 10000 jobs.
	if got := jobs.Load(); got > int64(s.MaxWindow())+13+1 {
		t.Fatalf("ran %d jobs after mid-batch emit error; window is %d", got, s.MaxWindow())
	}
}

// TestSchedulerStopDuringRetryBackoff checks that an always-failing job
// stops retrying once the run is cancelled. Its budget is 1<<16 attempts;
// each retry after the first waits for the cancellation, so a retry loop
// that ignored it would spend the whole budget.
func TestSchedulerStopDuringRetryBackoff(t *testing.T) {
	// Batch 1 keeps the clean index in its own span, so its emit (the
	// cancellation trigger) is not gated on the failing span finishing.
	const budget = 1 << 16
	s := NewScheduler(SchedulerConfig{Workers: 2, Retries: budget, Batch: 1})
	sentinel := errors.New("emit failed")
	tb := NewSpanTable(0, 8, poolSpanCap, s.cfg, func(Span, struct{}) error { return sentinel })
	failing := make(chan struct{})
	var attempts atomic.Int64
	err := runPool(s, tb, noBegin, func(worker, index, attempt int) error {
		if index == 0 {
			<-failing // cancel only once a retry loop is under way
			return nil
		}
		if attempt == 0 {
			close(failing)
		} else {
			<-tb.Done()
		}
		attempts.Add(1)
		return errors.New("always failing")
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if got := attempts.Load(); got > 2 {
		t.Fatalf("the failing job ran %d attempts after the run was cancelled, want at most 2", got)
	}
}

// TestSchedulerSpanCoverage is the exactly-once property of span
// dispatch: for randomized worker/window/batch combinations (including
// degenerate ones — window smaller than batch, batch larger than the
// run), every index in [start,end) runs exactly once, spans partition the
// range, and emits arrive in strict index order.
func TestSchedulerSpanCoverage(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 40; trial++ {
		workers := 1 + rng.IntN(8)
		window := rng.IntN(3) * (1 + rng.IntN(20)) // 0 = the rule's default, else 1..40
		batch := rng.IntN(4) * (1 + rng.IntN(30))  // 0 = the rule's default, else 1..90
		start := rng.IntN(5)
		end := start + rng.IntN(400)
		s := NewScheduler(SchedulerConfig{Workers: workers, Window: window, Batch: batch})

		ran := make([]int32, end)
		var mu sync.Mutex
		var begun []int // alternating lo, hi
		var emitted []int
		err := s.RunSpans(start, end,
			func(worker, lo, hi int) {
				mu.Lock()
				begun = append(begun, lo, hi)
				mu.Unlock()
			},
			func(worker, index, attempt int) error {
				atomic.AddInt32(&ran[index], 1)
				return nil
			},
			func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					emitted = append(emitted, i)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("trial %d (w=%d win=%d batch=%d [%d,%d)): %v", trial, workers, window, batch, start, end, err)
		}
		for i := start; i < end; i++ {
			if ran[i] != 1 {
				t.Fatalf("trial %d (w=%d win=%d batch=%d): index %d ran %d times", trial, workers, window, batch, i, ran[i])
			}
		}
		if len(emitted) != end-start {
			t.Fatalf("trial %d: emitted %d of %d", trial, len(emitted), end-start)
		}
		for k, v := range emitted {
			if v != start+k {
				t.Fatalf("trial %d: emit order broken at %d: got %d", trial, k, v)
			}
		}
		// Spans must partition [start,end): sorted by lo they must tile
		// exactly, with no overlap or gap.
		type sp struct{ lo, hi int }
		spans := make([]sp, 0, len(begun)/2)
		for i := 0; i < len(begun); i += 2 {
			spans = append(spans, sp{begun[i], begun[i+1]})
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		at := start
		for _, q := range spans {
			if q.lo != at || q.hi <= q.lo || q.hi > end {
				t.Fatalf("trial %d: spans do not partition [%d,%d): %v", trial, start, end, spans)
			}
			at = q.hi
		}
		if at != end {
			t.Fatalf("trial %d: spans stop at %d, want %d", trial, at, end)
		}
	}
}

// TestSchedulerWindowBounds drives a run with wildly uneven job latencies
// under the default window and checks the structural guarantees the
// ring-buffer callers rely on: execution never runs more than MaxWindow
// ahead of the emit frontier, and everything completes.
func TestSchedulerWindowBounds(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 8}) // Window 0: the dispatch rule's
	maxW := s.MaxWindow()
	var mu sync.Mutex
	frontier := 0
	worst := 0
	err := s.RunSpans(0, 500, nil,
		func(worker, index, attempt int) error {
			mu.Lock()
			if ahead := index - frontier; ahead > worst {
				worst = ahead
			}
			mu.Unlock()
			if index%97 == 0 {
				time.Sleep(2 * time.Millisecond) // straggler
			}
			return nil
		},
		perIndex(func(index int) error {
			mu.Lock()
			frontier = index + 1
			mu.Unlock()
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if worst >= maxW {
		t.Fatalf("execution ran %d ahead of the frontier; MaxWindow is %d", worst, maxW)
	}
}
