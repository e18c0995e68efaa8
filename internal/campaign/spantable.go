package campaign

import (
	"slices"
	"sync"
	"time"

	"reorder/internal/obs"
)

// Span is one contiguous [Lo,Hi) slice of the index range.
type Span struct{ Lo, Hi int }

// poolSpanCap caps an unset Batch in the in-process pool (Run, RunSpans).
// A span there costs two short critical sections; a cap of 512 measured
// flat on the survey list (ahead in 4 of 8 alternating benchmark pairs,
// medians inside the quartile spread) while window and batch memory grew
// 16×.
const poolSpanCap = 32

// LeaseSpanCap caps an unset Batch in the distributed coordinator's table.
// A lease costs a request/response turn: three framed messages and their
// parses, a grant and a report buffer. On the survey list (57 600 targets,
// two workers over a unix socket, 2-vCPU host) that cost is CPU, not idle
// time — utilisation reads 0.97 — and a traced pass with 32-target leases
// took 1 805 turns at 16.2 µs of CPU per target, 0.955 of a single-process
// pass's rate. With 512-target leases it took 122 turns at 12.7 µs per
// target and ran at 1.034 of it: roughly 100 µs of CPU saved per turn.
// (That was measured while a report still carried CSV rows and a shard
// delta, checked per turn.) A 512-target report is about 155 KB of JSONL.
const LeaseSpanCap = 512

// dispatch resolves the span size and the window for a run of n indices
// whose unset span is capped at maxSpan (poolSpanCap or LeaseSpanCap). It
// is the one rule behind Batch = 0 and Window = 0, for the in-process pool
// and the distributed coordinator alike (Workers being the pool size or the
// expected worker count):
//
//	span   = Batch, or min(maxSpan, max(1, n/(2×Workers))) when unset: big
//	         enough to amortize the per-span bookkeeping, small enough that a
//	         run splits into several spans per worker
//	window = Window, or max(64, 4×span×Workers) when unset
//	span   ≤ max(1, window/Workers), so that a window's worth of spans
//	         reaches every worker whatever sizes were asked for
func (cfg SchedulerConfig) dispatch(n, maxSpan int) (span, window int) {
	workers := max(1, cfg.Workers)
	span = cfg.Batch
	if span <= 0 {
		span = min(maxSpan, max(1, n/(2*workers)))
	}
	window = cfg.Window
	if window <= 0 {
		window = max(64, 4*span*workers)
	}
	return min(span, max(1, window/workers)), window
}

// SpanTable is the span dispatcher every driver shares — Scheduler.RunSpans,
// Run and the distributed coordinator. It carves [start,end) into spans off
// a cursor, grants them under a window above the in-order emit frontier,
// tracks who holds which, takes revoked spans back for re-issue, stashes
// completed payloads, and emits them in index order: whichever caller
// completes the frontier span drains the contiguous prefix through emit.
//
// All methods are safe for concurrent use. emit calls are serial, in
// ascending contiguous spans, on the goroutine whose Complete reached the
// frontier, and never under the lock Grant takes.
type SpanTable[P any] struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast on every state change; Grant parks on it

	end, size, window, workers int

	cursor   int // next never-granted index
	frontier int // next index to emit; everything below has been emitted

	reissue  []Span             // revoked spans awaiting a new owner, ascending Lo
	out      map[int]lease      // outstanding leases, by Lo
	stash    map[int]stashed[P] // completed spans above the frontier, by Lo
	emitting bool               // a Complete caller is draining, outside the lock
	parked   int                // goroutines waiting in Grant

	interrupt <-chan struct{} // closing it requests a drain
	draining  bool
	err       error         // first failure
	settled   chan struct{} // closed once: all emitted, drained dry, or failed
	isSettled bool

	emit func(Span, P) error
	obs  *obs.Scheduler
	now  func() time.Time
}

type lease struct{ hi, worker int }

type stashed[P any] struct {
	hi int
	p  P
}

// NewSpanTable returns a table over [start,end) whose unset Batch is capped
// at maxSpan. Of cfg it reads Workers, Batch and Window (through the one
// dispatch rule), Quiesce and Obs. emit receives each completed span with
// its payload, in index order.
func NewSpanTable[P any](start, end, maxSpan int, cfg SchedulerConfig, emit func(Span, P) error) *SpanTable[P] {
	t := &SpanTable[P]{
		end:       end,
		workers:   max(1, cfg.Workers),
		cursor:    start,
		frontier:  start,
		out:       map[int]lease{},
		stash:     map[int]stashed[P]{},
		interrupt: cfg.Quiesce,
		settled:   make(chan struct{}),
		emit:      emit,
		obs:       cfg.Obs,
		now:       time.Now,
	}
	t.size, t.window = cfg.dispatch(end-start, maxSpan)
	t.cond = sync.NewCond(&t.mu)
	t.wake() // an empty range is settled from the start
	return t
}

// wake publishes a state change: parked granters re-check, and the run
// settles when every index is emitted, a drain has nothing left in flight,
// or it has failed. Called with mu held.
func (t *SpanTable[P]) wake() {
	t.cond.Broadcast()
	if !t.isSettled && (t.err != nil || t.frontier >= t.end ||
		t.draining && len(t.out) == 0 && !t.emitting) {
		t.isSettled = true
		close(t.settled)
	}
}

// closed reports whether granting is over. It polls the interrupt channel
// under the lock, so no span is granted once that has closed, whichever
// goroutine gets to call drain. Called with mu held.
func (t *SpanTable[P]) closed() bool {
	select {
	case <-t.interrupt:
		if !t.draining {
			t.draining = true
			t.wake()
		}
	default:
	}
	return t.err != nil || t.draining || t.frontier >= t.end
}

// next returns the span Grant would hand out now: the lowest revoked span —
// ahead of the cursor, so the emit frontier unblocks as fast as possible
// after a loss — or else the next carve. Carves shrink near the tail so the
// last few spans spread over the workers instead of landing on one. Called
// with mu held.
func (t *SpanTable[P]) next() (sp Span, ok bool) {
	if len(t.reissue) > 0 {
		return t.reissue[0], true
	}
	remaining := t.end - t.cursor
	if remaining <= 0 {
		return Span{}, false
	}
	size := t.size
	if remaining < t.size*t.workers {
		size = max(1, remaining/t.workers)
	}
	return Span{t.cursor, t.cursor + size}, true
}

// Grant blocks until a span can be leased to worker, returning ok=false
// when the worker should stop: the run is draining or failed, or every
// index has been emitted. A span is granted when it fits under
// frontier+window or is the frontier span itself, so progress never depends
// on the sizes. With everything granted but not yet emitted Grant keeps
// waiting: a lease may yet be revoked and need a new owner.
func (t *SpanTable[P]) Grant(worker int) (Span, bool) {
	var stalledAt time.Time
	t.mu.Lock()
	defer func() {
		t.mu.Unlock()
		if !stalledAt.IsZero() {
			t.obs.WindowStallNanos.AddInt(t.now().Sub(stalledAt).Nanoseconds())
		}
	}()
	for !t.closed() {
		sp, ok := t.next()
		if ok && (sp.Hi <= t.frontier+t.window || sp.Lo == t.frontier) {
			if len(t.reissue) > 0 {
				t.reissue = slices.Delete(t.reissue, 0, 1)
			} else {
				t.cursor = sp.Hi
			}
			t.out[sp.Lo] = lease{hi: sp.Hi, worker: worker}
			if t.obs != nil {
				t.obs.SpanClaims.Inc()
			}
			return sp, true
		}
		if ok && t.obs != nil && stalledAt.IsZero() {
			stalledAt = t.now()
			t.obs.WindowStalls.Inc()
		}
		t.parked++
		t.cond.Wait()
		t.parked--
	}
	return Span{}, false
}

// Complete settles span sp with its payload. It returns false, dropping p,
// unless this is the first completion of an outstanding lease: a duplicate
// from a lease that was revoked, re-issued and already completed loses
// (deterministic probing makes the two copies byte-identical, so first-wins
// is exact), as does anything reported after a failure. When sp is the
// frontier span the caller emits it and every stashed span contiguous with
// it before returning; an emit error fails the run.
func (t *SpanTable[P]) Complete(sp Span, p P) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.out[sp.Lo]; !ok || l.hi != sp.Hi || t.err != nil {
		return false
	}
	delete(t.out, sp.Lo)
	if sp.Lo != t.frontier || t.emitting {
		t.stash[sp.Lo] = stashed[P]{hi: sp.Hi, p: p}
		t.wake()
		return true
	}
	t.emitting = true
	for {
		t.mu.Unlock()
		err := t.emit(sp, p)
		t.mu.Lock()
		if err == nil {
			t.frontier = sp.Hi
		} else if t.err == nil {
			t.err = err
		}
		s, ok := t.stash[t.frontier]
		if !ok || t.err != nil {
			break
		}
		delete(t.stash, t.frontier)
		sp, p = Span{t.frontier, s.hi}, s.p
		t.cond.Broadcast() // the window moved; the next emit need not hold it back
	}
	t.emitting = false
	t.wake()
	return true
}

// Revoke returns every lease worker holds to the re-issue queue, to be
// granted again lowest-Lo first, and reports how many. It is how a lost
// worker's spans find a new owner; the in-process pool never calls it.
func (t *SpanTable[P]) Revoke(worker int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	revoked := 0
	for lo, l := range t.out {
		if l.worker != worker {
			continue
		}
		delete(t.out, lo)
		at, _ := slices.BinarySearchFunc(t.reissue, lo, func(q Span, lo int) int { return q.Lo - lo })
		t.reissue = slices.Insert(t.reissue, at, Span{lo, l.hi})
		revoked++
	}
	if revoked > 0 {
		t.wake()
	}
	return revoked
}

// drain stops granting: waiting and later Grants return false, spans in
// flight still complete and emit in order, and the run settles when none is
// left. It is what closing the interrupt channel (SchedulerConfig.Quiesce)
// asks for.
func (t *SpanTable[P]) drain() {
	t.mu.Lock()
	t.draining = true
	t.wake()
	t.mu.Unlock()
}

// Fail settles the run as broken with err: Grant and Complete refuse from
// here on. The first failure wins; after the run has settled it is a no-op.
func (t *SpanTable[P]) Fail(err error) {
	t.mu.Lock()
	if !t.isSettled {
		t.err = err
		t.wake()
	}
	t.mu.Unlock()
}

// Done returns a channel closed once the run has settled: every index
// emitted, a drain with nothing left in flight, or a failure.
func (t *SpanTable[P]) Done() <-chan struct{} { return t.settled }

// Wait blocks until the run has settled and returns its failure, if any.
// An interrupt that closes while nothing else moves is turned into a drain
// here.
func (t *SpanTable[P]) Wait() error {
	select {
	case <-t.settled:
	case <-t.interrupt:
		t.drain()
		<-t.settled
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
