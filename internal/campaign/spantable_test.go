package campaign

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"reorder/internal/obs"
)

// testTable returns a table whose payload is each span's Lo (checked at
// emit, so a stashed payload cannot reach the wrong span) and the log of
// emitted spans. One expected worker makes Batch the exact span size.
func testTable(t *testing.T, start, end int, cfg SchedulerConfig) (*SpanTable[int], *[]Span) {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	emitted := new([]Span)
	return NewSpanTable(start, end, poolSpanCap, cfg, func(sp Span, lo int) error {
		if lo != sp.Lo {
			t.Errorf("span %+v emitted with the payload of the span at %d", sp, lo)
		}
		*emitted = append(*emitted, sp)
		return nil
	}), emitted
}

// awaitParked returns once n goroutines are parked in Grant. It reads the
// table's own count under its lock, so "blocked" is observed, not inferred
// from a sleep; a goroutine woken to re-check stays counted until it holds
// the lock, so the count never reads low in between.
func awaitParked[P any](tb *SpanTable[P], n int) {
	for {
		tb.mu.Lock()
		parked := tb.parked
		tb.mu.Unlock()
		if parked == n {
			return
		}
		runtime.Gosched()
	}
}

func isDone[P any](tb *SpanTable[P]) bool {
	select {
	case <-tb.Done():
		return true
	default:
		return false
	}
}

// TestDispatchRule pins the one rule behind Batch = 0 and Window = 0 under
// both caps, and that an explicit window caps the span at window/workers
// whichever driver asks (serve -batch 32 -window 10 -expect 4 used to lease
// [0,32) and park the other three workers until it was emitted).
func TestDispatchRule(t *testing.T) {
	type dispatchCase struct {
		cfg          SchedulerConfig
		n            int
		span, window int
	}
	check := func(c dispatchCase, maxSpan int) {
		t.Helper()
		if span, window := c.cfg.dispatch(c.n, maxSpan); span != c.span || window != c.window {
			t.Errorf("%+v over %d, cap %d: span %d window %d, want %d and %d",
				c.cfg, c.n, maxSpan, span, window, c.span, c.window)
		}
	}
	for _, c := range []dispatchCase{
		{SchedulerConfig{Workers: 2}, 57_600, 32, 256},
		{SchedulerConfig{Workers: 16}, 100, 3, 192},
		{SchedulerConfig{Workers: 16}, 10, 1, 64},
		{SchedulerConfig{Workers: 4, Batch: 8}, 1000, 8, 128},
		{SchedulerConfig{Workers: 4, Batch: 32, Window: 10}, 1000, 2, 10},
		{SchedulerConfig{Workers: 4, Window: 2}, 1000, 1, 2},
		{SchedulerConfig{Batch: 5, Window: 100}, 40, 5, 100},
	} {
		check(c, poolSpanCap)
		// An explicit size leaves the cap nothing to decide.
		if c.cfg.Batch > 0 || c.cfg.Window > 0 {
			check(c, LeaseSpanCap)
		}
	}
	// Leases: the survey list's two workers get full-size leases, lists on
	// either side of 2 × workers × cap straddle it, and small lists get the
	// in-process answers. Retries leave the lease size alone.
	for _, c := range []dispatchCase{
		{SchedulerConfig{Workers: 2}, 57_600, 512, 4096},
		{SchedulerConfig{Workers: 2, Retries: 1}, 57_600, 512, 4096},
		{SchedulerConfig{Workers: 2}, 2_049, 512, 4096},
		{SchedulerConfig{Workers: 2}, 2_048, 512, 4096},
		{SchedulerConfig{Workers: 2}, 2_047, 511, 4088},
		{SchedulerConfig{Workers: 16}, 100, 3, 192},
		{SchedulerConfig{Workers: 16}, 10, 1, 64},
		{SchedulerConfig{Workers: 2}, 1, 1, 64},
	} {
		check(c, LeaseSpanCap)
	}

	const workers = 4
	tb, _ := testTable(t, 0, 1000, SchedulerConfig{Workers: workers, Batch: 32, Window: 10})
	for w := 0; w < workers; w++ {
		// A Grant that had to wait for a completion would hang the test.
		if sp, ok := tb.Grant(w); !ok || sp.Hi > 10 {
			t.Fatalf("grant %d of %d before any completion = %+v %v", w+1, workers, sp, ok)
		}
	}
}

// TestLeaseTable unit-tests the dispatch invariants: lowest-lo re-issue
// first, window gating (and its two stall counters), first-completion-wins,
// revoke requeueing, in-order emit by the completing caller.
func TestLeaseTable(t *testing.T) {
	var sched obs.Scheduler
	tb, emitted := testTable(t, 0, 20, SchedulerConfig{Batch: 5, Window: 10, Obs: &sched})
	var clock time.Duration
	tb.now = func() time.Time { clock += time.Millisecond; return time.Unix(0, 0).Add(clock) }
	if sp, ok := tb.Grant(1); !ok || sp != (Span{0, 5}) {
		t.Fatalf("grant 1 = %+v %v", sp, ok)
	}
	if sp, ok := tb.Grant(2); !ok || sp != (Span{5, 10}) {
		t.Fatalf("grant 2 = %+v %v", sp, ok)
	}
	// Window is 10 above frontier 0: [10,15) must block until an emit.
	granted := make(chan Span)
	go func() {
		sp, ok := tb.Grant(3)
		if !ok {
			t.Error("grant 3 drained unexpectedly")
		}
		granted <- sp
	}()
	awaitParked(tb, 1)
	if got := sched.WindowStalls.Load(); got != 1 {
		t.Fatalf("window stalls = %d with one worker parked on the window, want 1", got)
	}
	if !tb.Complete(Span{0, 5}, 0) {
		t.Fatal("first completion rejected")
	}
	if sp := <-granted; sp != (Span{10, 15}) {
		t.Fatalf("post-emit grant = %+v", sp)
	}
	if got := sched.WindowStallNanos.Load(); got != uint64(time.Millisecond) {
		t.Fatalf("window stall time = %dns, want one tick of the 1ms clock", got)
	}
	// Worker 2 dies holding [5,10): it must come back before the cursor.
	if n := tb.Revoke(2); n != 1 {
		t.Fatalf("revoke(2) = %d, want 1", n)
	}
	if tb.Complete(Span{5, 10}, 5) {
		t.Fatal("completion of a revoked, not yet re-issued lease accepted")
	}
	if sp, ok := tb.Grant(4); !ok || sp != (Span{5, 10}) {
		t.Fatalf("re-issue grant = %+v %v, want [5,10)", sp, ok)
	}
	// The dead worker's late report must lose to the re-issued lease.
	if !tb.Complete(Span{5, 10}, 5) {
		t.Fatal("re-issued completion rejected")
	}
	if tb.Complete(Span{5, 10}, 5) {
		t.Fatal("duplicate completion accepted")
	}
	if sp, ok := tb.Grant(5); !ok || sp != (Span{15, 20}) {
		t.Fatalf("tail grant = %+v %v", sp, ok)
	}
	// Out of order: [15,20) waits in the stash for [10,15).
	tb.Complete(Span{15, 20}, 15)
	if isDone(tb) {
		t.Fatal("settled with [10,15) outstanding")
	}
	tb.Complete(Span{10, 15}, 10)
	if want := []Span{{0, 5}, {5, 10}, {10, 15}, {15, 20}}; !slices.Equal(*emitted, want) {
		t.Fatalf("emitted %v, want %v", *emitted, want)
	}
	if _, ok := tb.Grant(6); ok {
		t.Fatal("grant after completion should drain")
	}
	if !isDone(tb) || tb.Wait() != nil {
		t.Fatal("finished table not settled cleanly")
	}
	if got := sched.SpanClaims.Load(); got != 5 {
		t.Fatalf("span claims = %d, want 5 (four spans, one re-issued)", got)
	}
}

// TestLeaseReissueOrderingAfterMassRevoke revokes several workers' leases
// in scrambled order and checks re-grants come back lowest-lo-first,
// ahead of the never-issued cursor — the ordering that unblocks the
// in-order emit frontier fastest after a fleet-wide loss.
func TestLeaseReissueOrderingAfterMassRevoke(t *testing.T) {
	tb, _ := testTable(t, 0, 40, SchedulerConfig{Batch: 5, Window: 100})
	for i, worker := range []int{1, 2, 3, 1} {
		if sp, ok := tb.Grant(worker); !ok || sp != (Span{5 * i, 5*i + 5}) {
			t.Fatalf("grant %d = %+v %v", i, sp, ok)
		}
	}

	// Mass revoke in scrambled order; worker 1 held two spans.
	if n := tb.Revoke(2); n != 1 {
		t.Fatalf("revoke(2) = %d, want 1", n)
	}
	if n := tb.Revoke(1); n != 2 {
		t.Fatalf("revoke(1) = %d, want 2", n)
	}
	if n := tb.Revoke(3); n != 1 {
		t.Fatalf("revoke(3) = %d, want 1", n)
	}
	if n := tb.Revoke(3); n != 0 {
		t.Fatalf("second revoke(3) = %d, want 0 (nothing held)", n)
	}

	// Re-grants must drain the queue lowest-lo-first before the cursor
	// resumes at [20,25).
	want := []Span{{0, 5}, {5, 10}, {10, 15}, {15, 20}, {20, 25}}
	for i, w := range want {
		sp, ok := tb.Grant(9)
		if !ok || sp != w {
			t.Fatalf("re-grant %d = %+v %v, want %+v", i, sp, ok, w)
		}
	}
}

// TestLeaseRevokeRacesReport races a worker-loss revoke against that
// worker's in-flight report for the same span, many times. Exactly one
// outcome is allowed per race: either the report wins (Complete returns
// true, the span is retired, nobody re-probes it) or the revoke wins (the
// report is stale, Complete returns false, and the span is re-grantable
// exactly once). Either way no span is lost or completed twice.
func TestLeaseRevokeRacesReport(t *testing.T) {
	for i := 0; i < 300; i++ {
		tb, emitted := testTable(t, 0, 10, SchedulerConfig{Batch: 5, Window: 100})
		if sp, ok := tb.Grant(1); !ok || sp != (Span{0, 5}) {
			t.Fatalf("iter %d: grant = %+v %v", i, sp, ok)
		}

		var wg sync.WaitGroup
		var completed bool
		wg.Add(2)
		go func() {
			defer wg.Done()
			tb.Revoke(1)
		}()
		go func() {
			defer wg.Done()
			completed = tb.Complete(Span{0, 5}, 0)
		}()
		wg.Wait()

		// Whatever interleaving happened, the next grant decides: a
		// completed span must never be handed out again, a revoked-first
		// span must come back exactly once.
		sp, ok := tb.Grant(2)
		if !ok {
			t.Fatalf("iter %d: table drained with work left", i)
		}
		if completed {
			if sp != (Span{5, 10}) {
				t.Fatalf("iter %d: completed span re-granted as %+v", i, sp)
			}
		} else {
			if sp != (Span{0, 5}) {
				t.Fatalf("iter %d: revoked span not re-granted (got %+v)", i, sp)
			}
			// The original worker's late duplicate must lose to exactly one
			// completion of the re-issued lease.
			if !tb.Complete(Span{0, 5}, 0) {
				t.Fatalf("iter %d: re-issued completion rejected", i)
			}
			if tb.Complete(Span{0, 5}, 0) {
				t.Fatalf("iter %d: duplicate completion accepted", i)
			}
		}
		if want := []Span{{0, 5}}; !slices.Equal(*emitted, want) {
			t.Fatalf("iter %d: emitted %v, want %v", i, *emitted, want)
		}
	}
}

// TestLeaseRevokeDuringGrantWait checks a revoke arriving while another
// worker is parked in Grant (window-blocked) wakes it with the re-issued
// span rather than leaving it parked past the loss.
func TestLeaseRevokeDuringGrantWait(t *testing.T) {
	tb, _ := testTable(t, 0, 20, SchedulerConfig{Batch: 5, Window: 5}) // only one span grantable
	if sp, ok := tb.Grant(1); !ok || sp != (Span{0, 5}) {
		t.Fatalf("grant = %+v %v", sp, ok)
	}
	got := make(chan Span)
	go func() {
		sp, ok := tb.Grant(2)
		if !ok {
			t.Error("waiting grant drained unexpectedly")
		}
		got <- sp
	}()
	awaitParked(tb, 1)
	// Worker 1 dies; its span must route to the parked worker 2.
	tb.Revoke(1)
	if sp := <-got; sp != (Span{0, 5}) {
		t.Fatalf("post-revoke grant = %+v, want [0,5)", sp)
	}
}

// Span states of the sequential model TestSpanTableModel checks the table
// against. The carve depends only on the cursor, so whatever the
// interleaving the spans are one fixed partition of the range, and the
// model is that partition with a state per span — no cursor, queue or map.
const (
	spanFresh = iota
	spanLeased
	spanRevoked
	spanDone // completed, waiting for the frontier
	spanEmitted
)

type modelSpan struct {
	Span
	state, worker int
}

type tableModel struct {
	spans            []modelSpan
	end, window      int
	draining, failed bool
}

func (m *tableModel) frontier() int {
	for _, s := range m.spans {
		if s.state != spanEmitted {
			return s.Lo
		}
	}
	return m.end
}

func (m *tableModel) count(state int) (n int) {
	for _, s := range m.spans {
		if s.state == state {
			n++
		}
	}
	return n
}

func (m *tableModel) closed() bool { return m.failed || m.draining || m.frontier() >= m.end }

func (m *tableModel) settled() bool {
	return m.failed || m.frontier() >= m.end || m.draining && m.count(spanLeased) == 0
}

// grantable returns the span a Grant must return now — the lowest revoked
// span, else the first never-granted one, if the window admits it — or -1
// if Grant must park.
func (m *tableModel) grantable() int {
	at := slices.IndexFunc(m.spans, func(s modelSpan) bool { return s.state == spanRevoked })
	if at < 0 {
		at = slices.IndexFunc(m.spans, func(s modelSpan) bool { return s.state == spanFresh })
	}
	if at < 0 {
		return -1
	}
	if s, f := m.spans[at], m.frontier(); s.Hi > f+m.window && s.Lo != f {
		return -1
	}
	return at
}

type grantResult struct {
	worker int
	sp     Span
	ok     bool
}

// TestSpanTableModel is the table's property test: for each seed a driver
// applies random grant / complete / duplicate-complete / revoke operations,
// and a drain or a failure in half the runs, to the table and to the
// sequential model above, and compares every return value. Grants the model
// says must wait are issued from goroutines of their own and observed
// parked; completions are reported several at a time from concurrent
// goroutines, so the drain hand-off between completing callers runs under
// the race detector. Checked on every step: a grant returns exactly the
// model's span (lowest revoked first, each exactly once, nothing beyond
// frontier+window but the frontier span), a completion is accepted exactly
// when the span is on lease, emits are the model's — ascending, contiguous,
// each span once, with its own payload — and the run settles exactly when
// the model does. No wall clock anywhere.
func TestSpanTableModel(t *testing.T) {
	for seed := uint64(0); seed < 256; seed++ {
		checkTableAgainstModel(t, seed)
	}
}

func checkTableAgainstModel(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x5ca1ab1e))
	start := rng.IntN(5)
	end := start + 1 + rng.IntN(120)
	var sched obs.Scheduler
	cfg := SchedulerConfig{
		Workers: 1 + rng.IntN(5),
		Batch:   rng.IntN(2) * rng.IntN(13),
		Window:  rng.IntN(2) * rng.IntN(41),
		Obs:     &sched,
	}
	tb, emitted := testTable(t, start, end, cfg)

	m := &tableModel{end: end}
	var size int
	size, m.window = cfg.dispatch(end-start, poolSpanCap)
	for lo := start; lo < end; {
		n := size
		if remaining := end - lo; remaining < size*cfg.Workers {
			n = max(1, remaining/cfg.Workers)
		}
		m.spans = append(m.spans, modelSpan{Span: Span{lo, lo + n}})
		lo += n
	}

	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d (%+v over [%d,%d)): "+format, append([]any{seed, cfg, start, end}, args...)...)
	}
	errBoom := errors.New("boom")
	// ending: half the runs go to completion; the others are drained or
	// failed at a random step.
	ending, endAt := rng.IntN(4), rng.IntN(60)

	const ids = 5
	parked := map[int]bool{} // workers with a Grant waiting
	results := make(chan grantResult)
	var wantEmitted []Span
	grants := 0

	// release collects what the last operation let parked Grants return.
	release := func() {
		var want []Span
		for n := len(parked); n > 0; n-- {
			if m.closed() {
				want = append(want, Span{})
				continue
			}
			at := m.grantable()
			if at < 0 {
				break
			}
			m.spans[at].state = spanLeased
			want = append(want, m.spans[at].Span)
			grants++
		}
		var got []Span
		for range want {
			r := <-results
			delete(parked, r.worker)
			got = append(got, r.sp)
			if at := slices.IndexFunc(m.spans, func(s modelSpan) bool { return r.ok && s.Span == r.sp }); at >= 0 {
				m.spans[at].worker = r.worker
			}
		}
		byLo := func(a, b Span) int { return a.Lo - b.Lo }
		slices.SortFunc(want, byLo)
		slices.SortFunc(got, byLo)
		if !slices.Equal(got, want) {
			fatalf("parked grants returned %v, want %v", got, want)
		}
		awaitParked(tb, len(parked))
	}

	for step := 0; !m.settled(); step++ {
		if step > 100_000 {
			fatalf("no end after %d steps", step)
		}
		if isDone(tb) {
			fatalf("step %d: table settled before the model", step)
		}
		if step == endAt && ending == 2 {
			tb.drain()
			m.draining = true
			release()
			continue
		}
		if step == endAt && ending == 3 {
			tb.Fail(errBoom)
			m.failed = true
			release()
			continue
		}
		switch op := rng.IntN(100); {
		case op < 45: // grant
			w := rng.IntN(ids)
			if parked[w] {
				continue
			}
			at := -1
			if !m.closed() {
				if at = m.grantable(); at < 0 {
					parked[w] = true
					go func() {
						sp, ok := tb.Grant(w)
						results <- grantResult{w, sp, ok}
					}()
					awaitParked(tb, len(parked))
					continue
				}
			}
			sp, ok := tb.Grant(w)
			if ok != (at >= 0) || ok && sp != m.spans[at].Span {
				fatalf("step %d: grant = %+v %v, model span index %d of %+v", step, sp, ok, at, m.spans)
			}
			if ok {
				m.spans[at].state, m.spans[at].worker = spanLeased, w
				grants++
			}
		case op < 85: // complete up to three leased spans at once
			var leased []int
			for i, s := range m.spans {
				if s.state == spanLeased {
					leased = append(leased, i)
				}
			}
			rng.Shuffle(len(leased), func(i, j int) { leased[i], leased[j] = leased[j], leased[i] })
			leased = leased[:min(len(leased), 1+rng.IntN(3))]
			var wg sync.WaitGroup
			for _, i := range leased {
				sp := m.spans[i].Span
				m.spans[i].state = spanDone
				wg.Add(1)
				go func() {
					defer wg.Done()
					if !tb.Complete(sp, sp.Lo) {
						t.Errorf("seed %d step %d: completion of leased %+v refused", seed, step, sp)
					}
				}()
			}
			wg.Wait()
			for i := range m.spans {
				if m.spans[i].state == spanDone && m.spans[i].Lo == m.frontier() {
					m.spans[i].state = spanEmitted
					wantEmitted = append(wantEmitted, m.spans[i].Span)
				}
			}
		case op < 92: // a completion the table must refuse
			i := rng.IntN(len(m.spans))
			sp := m.spans[i].Span
			if m.spans[i].state == spanLeased {
				sp.Hi++ // on lease, but not as this span
			}
			if tb.Complete(sp, sp.Lo) {
				fatalf("step %d: completion of %+v accepted in state %d", step, sp, m.spans[i].state)
			}
		default: // revoke
			w := rng.IntN(ids)
			want := 0
			for i, s := range m.spans {
				if s.state == spanLeased && s.worker == w {
					m.spans[i].state = spanRevoked
					want++
				}
			}
			if n := tb.Revoke(w); n != want {
				fatalf("step %d: revoke(%d) = %d, want %d", step, w, n, want)
			}
		}
		if !slices.Equal(*emitted, wantEmitted) {
			fatalf("step %d: emitted %v, want %v", step, *emitted, wantEmitted)
		}
		release()
	}

	if !isDone(tb) {
		fatalf("model settled, table did not")
	}
	var wantErr error
	if m.failed {
		wantErr = errBoom
	}
	if err := tb.Wait(); err != wantErr {
		fatalf("Wait = %v, want %v", err, wantErr)
	}
	if len(parked) != 0 {
		fatalf("%d grants still parked on a settled table", len(parked))
	}
	if got := sched.SpanClaims.Load(); got != uint64(grants) {
		fatalf("span claims = %d, model granted %d", got, grants)
	}
	if !m.failed && !m.draining {
		if f := (*emitted)[len(*emitted)-1].Hi; f != end || (*emitted)[0].Lo != start {
			fatalf("completed run emitted [%d,%d)", (*emitted)[0].Lo, f)
		}
	}
}
