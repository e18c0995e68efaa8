package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"

	"reorder/internal/canonjson"
)

// Trace is a structured JSONL run trace: one object per line, recording
// the campaign's orchestration lifecycle — span claims and completions,
// in-order emits, retries, checkpoints, sink flushes — with both wall
// timestamps (nanoseconds since the trace started, plus absolute unix
// nanoseconds on run boundaries) and, where a simulation ran, the
// simulated time it consumed. The schema is append-only: every event has
// "ev" and "t_ns"; other keys are per-event. String values are written as
// the campaign's JSONL writes them (canonjson.AppendString), so every line
// is valid JSON whatever bytes an error text holds.
//
// Events are span-granular, never per-frame, so a trace stays a few
// kilobytes per thousand targets and tracing costs the hot path nothing.
// All methods are safe for concurrent use (workers trace claims and
// completions; the in-order emit traces emits and checkpoints) and safe on a
// nil *Trace, so call sites need no gating.
type Trace struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	c     io.Closer
	buf   []byte
	start time.Time
	n     uint64
}

// NewTrace wraps w. If w is an io.Closer, Close closes it.
func NewTrace(w io.Writer) *Trace {
	t := &Trace{bw: bufio.NewWriter(w), start: time.Now()}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Events returns the number of events written.
func (t *Trace) Events() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// begin starts an event line under the lock: {"ev":"<ev>","t_ns":<since start>.
func (t *Trace) begin(ev string) {
	t.buf = append(t.buf[:0], `{"ev":"`...)
	t.buf = append(t.buf, ev...)
	t.buf = append(t.buf, `","t_ns":`...)
	t.buf = strconv.AppendInt(t.buf, time.Since(t.start).Nanoseconds(), 10)
}

func (t *Trace) int(key string, v int64) {
	t.buf = append(t.buf, ',', '"')
	t.buf = append(t.buf, key...)
	t.buf = append(t.buf, `":`...)
	t.buf = strconv.AppendInt(t.buf, v, 10)
}

func (t *Trace) str(key, v string) {
	t.buf = append(t.buf, ',', '"')
	t.buf = append(t.buf, key...)
	t.buf = append(t.buf, `":`...)
	t.buf = canonjson.AppendString(t.buf, v)
}

func (t *Trace) end() {
	t.buf = append(t.buf, '}', '\n')
	t.bw.Write(t.buf)
	t.n++
}

// RunStart records the run boundary with an absolute timestamp.
func (t *Trace) RunStart(targets, workers, startIndex int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.begin("run_start")
	t.int("unix_ns", time.Now().UnixNano())
	t.int("targets", int64(targets))
	t.int("workers", int64(workers))
	t.int("start_index", int64(startIndex))
	t.end()
}

// SpanClaim records a worker claiming the dispatch span [lo,hi).
func (t *Trace) SpanClaim(worker, lo, hi int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.begin("span_claim")
	t.int("worker", int64(worker))
	t.int("lo", int64(lo))
	t.int("hi", int64(hi))
	t.end()
}

// SpanDone records a worker finishing every target of its span, with the
// simulated time those targets consumed and the sink bytes rendered.
func (t *Trace) SpanDone(worker, lo, hi int, simNs, renderedBytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.begin("span_done")
	t.int("worker", int64(worker))
	t.int("lo", int64(lo))
	t.int("hi", int64(hi))
	t.int("sim_ns", simNs)
	t.int("rendered_bytes", renderedBytes)
	t.end()
}

// SpanEmit records the in-order emit of span [lo,hi); done is
// the new emit frontier.
func (t *Trace) SpanEmit(lo, hi, done int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.begin("span_emit")
	t.int("lo", int64(lo))
	t.int("hi", int64(hi))
	t.int("done", int64(done))
	t.end()
}

// Retry records a failed attempt being retried, with the simulated time
// the failed probe consumed.
func (t *Trace) Retry(worker, index, attempt int, simNs int64, errMsg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.begin("retry")
	t.int("worker", int64(worker))
	t.int("index", int64(index))
	t.int("attempt", int64(attempt))
	t.int("sim_ns", simNs)
	t.str("error", errMsg)
	t.end()
}

// Checkpoint records a durable checkpoint at done emitted results, with
// the sink-flush latency paid just before it.
func (t *Trace) Checkpoint(done int, flushNs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.begin("checkpoint")
	t.int("done", int64(done))
	t.int("flush_ns", flushNs)
	t.end()
}

// Quiesce records graceful shutdown beginning to drain in-flight spans.
func (t *Trace) Quiesce(done int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.begin("quiesce")
	t.int("done", int64(done))
	t.end()
}

// RunEnd records the run boundary with an absolute timestamp.
func (t *Trace) RunEnd(done int, interrupted bool, errMsg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.begin("run_end")
	t.int("unix_ns", time.Now().UnixNano())
	t.int("done", int64(done))
	v := int64(0)
	if interrupted {
		v = 1
	}
	t.int("interrupted", v)
	if errMsg != "" {
		t.str("error", errMsg)
	}
	t.end()
}

// Flush forces buffered events to the underlying writer.
func (t *Trace) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bw.Flush()
}

// Close flushes and releases the trace.
func (t *Trace) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.bw.Flush()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
