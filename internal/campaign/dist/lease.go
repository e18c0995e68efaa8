package dist

import "sync"

// span is one contiguous [lo,hi) slice of the target index range.
type span struct{ lo, hi int }

// leaseTable is the in-process span-dispatch cursor made remote-safe: the
// same invariants as the scheduler's atomic cursor (spans partition the
// range, each index owned by exactly one live lease, dispatch gated by a
// window above the emit frontier) plus what remoteness adds — leases can
// die with their worker and return to a re-issue queue, granted again
// lowest-lo first so the emit frontier unblocks as fast as possible.
//
// All methods are safe for concurrent use; grant blocks until a span is
// grantable, the worker should drain, or the run fails.
type leaseTable struct {
	mu   sync.Mutex
	cond *sync.Cond

	cursor   int // next never-issued index
	end      int
	spanSize int
	window   int
	frontier int // emit frontier, published via advance

	reissue []span            // revoked spans, sorted by lo
	out     map[int]leaseInfo // outstanding leases, keyed by lo

	// interrupt, when non-nil, requests a drain by closing. grant polls it
	// under the lock, so no lease is granted once it has closed, whatever
	// the scheduler does with the goroutine that calls drain to wake the
	// waiters.
	interrupt <-chan struct{}
	draining  bool
	failed    bool
}

type leaseInfo struct {
	hi     int
	worker int
}

func newLeaseTable(start, end, spanSize, window int) *leaseTable {
	t := &leaseTable{
		cursor:   start,
		end:      end,
		spanSize: spanSize,
		window:   window,
		frontier: start,
		out:      map[int]leaseInfo{},
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// grant blocks until a span can be leased to worker, returning ok=false
// when the worker should drain: the run is draining or failed, or every
// index has been emitted. While work is outstanding on other workers it
// keeps waiting — their leases may yet be revoked and need a new owner.
func (t *leaseTable) grant(worker int) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		select {
		case <-t.interrupt:
			t.draining = true
		default:
		}
		if t.failed || t.draining || t.frontier >= t.end {
			return span{}, false
		}
		var sp span
		fromReissue := false
		have := false
		if len(t.reissue) > 0 {
			sp, fromReissue, have = t.reissue[0], true, true
		} else if t.cursor < t.end {
			hi := t.cursor + t.spanSize
			if hi > t.end {
				hi = t.end
			}
			sp, have = span{t.cursor, hi}, true
		}
		if have && sp.lo < t.frontier+t.window {
			if fromReissue {
				t.reissue = t.reissue[:copy(t.reissue, t.reissue[1:])]
			} else {
				t.cursor = sp.hi
			}
			t.out[sp.lo] = leaseInfo{hi: sp.hi, worker: worker}
			return sp, true
		}
		t.cond.Wait()
	}
}

// complete settles a reported span. It returns true when this is the
// span's first completion (the lease — original or re-issued — is
// retired); a stale report from a worker whose lease was re-issued and
// already completed returns false and must be dropped. Deterministic
// probing makes the two copies byte-identical, so first-wins is exact.
func (t *leaseTable) complete(lo, hi int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	li, ok := t.out[lo]
	if !ok || li.hi != hi {
		return false
	}
	delete(t.out, lo)
	// A completed span no longer needs re-issue: drop any queued copy
	// (the lease was revoked, re-queued, and then the original worker
	// reported after all).
	for i, q := range t.reissue {
		if q.lo == lo {
			t.reissue = append(t.reissue[:i], t.reissue[i+1:]...)
			break
		}
	}
	t.cond.Broadcast()
	return true
}

// revoke returns every outstanding lease held by worker to the re-issue
// queue (sorted by lo) and wakes waiting granters. The count of spans
// re-queued feeds the dist telemetry.
func (t *leaseTable) revoke(worker int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	revoked := 0
	for lo, li := range t.out {
		if li.worker != worker {
			continue
		}
		delete(t.out, lo)
		at := len(t.reissue)
		for i, q := range t.reissue {
			if lo < q.lo {
				at = i
				break
			}
		}
		t.reissue = append(t.reissue, span{})
		copy(t.reissue[at+1:], t.reissue[at:])
		t.reissue[at] = span{lo, li.hi}
		revoked++
	}
	if revoked > 0 {
		t.cond.Broadcast()
	}
	return revoked
}

// advance publishes a new emit frontier, widening the dispatch window.
func (t *leaseTable) advance(frontier int) {
	t.mu.Lock()
	t.frontier = frontier
	t.cond.Broadcast()
	t.mu.Unlock()
}

// drain stops granting: subsequent and waiting grants return false, so
// workers finish their in-flight spans, report, and say bye.
func (t *leaseTable) drain() {
	t.mu.Lock()
	t.draining = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// fail wakes everything with the run marked broken.
func (t *leaseTable) fail() {
	t.mu.Lock()
	t.failed = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// waitSettled blocks until the run can finalize: every index emitted, or
// a drain has no leases left in flight, or the run failed.
func (t *leaseTable) waitSettled() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.failed || t.frontier >= t.end || (t.draining && len(t.out) == 0) {
			return
		}
		t.cond.Wait()
	}
}
