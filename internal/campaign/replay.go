package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// A resume replays the checkpointed JSONL prefix on every core, in three
// stages, each a fixed number of goroutines and buffers however long the
// prefix is, and each the same code run inline at GOMAXPROCS=1:
//
//   - replayOutput reads the file once, in blocks of whole lines, which up
//     to GOMAXPROCS goroutines take in turn and decode and verify into the
//     one results slab with recordDecoder;
//   - openSinks re-renders the CSV from the verified slab (rebuildCSV):
//     ranges rendered in parallel, written strictly in index order — after
//     the replay succeeded, so a refused resume leaves the CSV file as it
//     was;
//   - Aggregator.AddAll folds the slab over the aggregator's shards.
//
// Errors are the sequential loop's: the lowest-index record that fails is
// reported, with the loop's text, and nothing is truncated.

const (
	// replayBlockBytes is the storage of one block the replay reads the
	// prefix in: a few hundred records, so that a prefix of a few thousand
	// spreads over the decoders (see replayDecoders). A line longer than a
	// block grows its block — there is no cap on a record's length.
	replayBlockBytes = 64 << 10
	// decoderScratch is a decoder's scratch, sized so a record does not
	// grow it.
	decoderScratch = 1024
	// replayRange is how many records the CSV rebuild and the fold hand a
	// goroutine at a time.
	replayRange = 512
)

// replayOutput reads the first done records back from the JSONL output of
// an interrupted campaign — record i decoded against targets[i], see
// recordDecoder — and truncates anything past them (a crash may have
// written results the checkpoint never acknowledged; they are re-probed,
// deterministically, to the same bytes). The caller has checked
// done <= len(targets); the results share one slab.
func replayOutput(path string, targets []Target, done int) ([]TargetResult, error) {
	if done == 0 {
		return nil, nil
	}
	if path == "" {
		return nil, fmt.Errorf("campaign: resume requires OutputPath (the checkpoint replays from it)")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	results, offset, err := replayRecords(f, path, targets, done, replayBlockBytes, replayDecoders(fi.Size()))
	if err != nil {
		return nil, err
	}
	if err := os.Truncate(path, offset); err != nil {
		return nil, err
	}
	return results, nil
}

// replayDecoders is how many decoders replayOutput puts on a file of size
// bytes: one per whole block it holds, at least one and at most GOMAXPROCS,
// so a prefix shorter than two blocks is decoded inline.
func replayDecoders(size int64) int {
	return int(min(int64(runtime.GOMAXPROCS(0)), max(1, size/replayBlockBytes)))
}

// replay is one replayRecords call's shared state.
type replay struct {
	name      string
	targets   []Target
	results   []TargetResult
	store     []byte // the decoders' blocks and scratch
	blockSize int

	mu     sync.Mutex // guards the rest: the read position and the first error
	src    io.Reader
	carry  []byte // the partial line the last block read ended with
	n      int    // records handed out to decode
	offset int64  // their bytes
	eof    bool
	errAt  int // index of the lowest failing record so far; len(results) when none
	err    error
}

// replayBlock is a run of whole newline-terminated records and the index
// of its first.
type replayBlock struct {
	buf   []byte // the decoder's storage, reused; lines is its prefix
	lines []byte
	first int
}

// replayRecords decodes the first done newline-terminated records of src
// into a fresh slab and returns it with the records' length in bytes. Each
// of decoders goroutines (see parallel) owns one block of blockSize bytes
// (blockSize > 0): it reads the next run of whole lines into it, in turn
// with the others, then decodes it.
func replayRecords(src io.Reader, name string, targets []Target, done, blockSize, decoders int) ([]TargetResult, int64, error) {
	rp := &replay{name: name, targets: targets, results: make([]TargetResult, done), src: src, errAt: done,
		// One allocation holds every decoder's block and scratch.
		store: make([]byte, decoders*(blockSize+decoderScratch)), blockSize: blockSize}
	parallel(decoders, rp.decoder)
	if rp.err != nil {
		return nil, 0, rp.err
	}
	if rp.n < done {
		return nil, 0, fmt.Errorf("campaign: %s has %d records but checkpoint says %d emitted",
			name, rp.n, done)
	}
	return rp.results, rp.offset, nil
}

// decoder is decoder g: it reads the next block into its own storage and
// decodes it until there is none.
func (rp *replay) decoder(g int) {
	at := g * (rp.blockSize + decoderScratch)
	b := replayBlock{buf: rp.store[at : at : at+rp.blockSize]}
	at += rp.blockSize
	dec := recordDecoder{scratch: rp.store[at : at : at+decoderScratch]}
	for rp.next(&b) {
		rp.decode(&dec, &b)
	}
}

// next reads the next run of whole lines into b, reporting false when there
// is none to decode: the prefix is read, src ended or failed, or a record
// failed.
func (rp *replay) next(b *replayBlock) bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	done := len(rp.results)
	if rp.n == done || rp.eof || rp.err != nil {
		return false
	}
	buf, err := fill(rp.src, append(b.buf[:0], rp.carry...))
	b.buf = buf
	rp.eof = err == io.EOF
	// What follows the last newline continues in the next block. At EOF it
	// is an unterminated tail, which can only be an unacknowledged partial
	// write (a checkpoint is saved only after the sink flushed the trailing
	// newline): it is left past offset, to be truncated and re-probed.
	cut := bytes.LastIndexByte(buf, '\n') + 1
	lines := buf[:cut]
	rp.carry = buf[cut:]
	k := bytes.Count(lines, []byte{'\n'})
	if k > done-rp.n {
		k = done - rp.n
		lines = lines[:lineEnd(lines, k)]
	}
	b.lines, b.first = lines, rp.n
	rp.n += k
	rp.offset += int64(len(lines))
	if err != nil && !rp.eof && rp.n < done {
		rp.failLocked(rp.n, fmt.Errorf("campaign: %s record %d: %w", rp.name, rp.n, err))
	}
	return k > 0
}

// fill reads src into buf's spare capacity until buf is full and holds a
// newline, or src fails or ends. A full buffer without one — a line longer
// than the block — grows, so a record of any length is read.
func fill(src io.Reader, buf []byte) ([]byte, error) {
	scanned := 0
	for {
		if len(buf) == cap(buf) {
			if bytes.IndexByte(buf[scanned:], '\n') >= 0 {
				return buf, nil
			}
			scanned = len(buf)
			buf = slices.Grow(buf, len(buf))
		}
		m, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
}

// lineEnd returns the length of the first k lines of b, which has at least
// k.
func lineEnd(b []byte, k int) int {
	end := 0
	for ; k > 0; k-- {
		end += bytes.IndexByte(b[end:], '\n') + 1
	}
	return end
}

// decode decodes one block into the slab, stopping at its first failing
// record.
func (rp *replay) decode(dec *recordDecoder, b *replayBlock) {
	if n, err := decodeLines(dec, b.lines, rp.targets[b.first:], rp.results[b.first:], b.first); err != nil {
		rp.fail(n, fmt.Errorf("campaign: %s record %d %w", rp.name, n, err))
	}
}

var (
	errTooMany      = errors.New("is one record too many")
	errUnterminated = errors.New("has no newline")
)

// decodeLines decodes lines, newline-terminated records first, first+1, …,
// record first+i against targets[i] into results[i], and returns the index
// after the last. It stops at the first record that fails — not canonical,
// another target's, at another index, past len(results) or without its
// newline — and returns that record's index and what is wrong with it. It
// is the one decode loop: a resume's replay runs it over each block of the
// prefix, and a SpanDecoder over a remote worker's span.
func decodeLines(dec *recordDecoder, lines []byte, targets []Target, results []TargetResult, first int) (int, error) {
	n := first
	for ; len(lines) > 0; n++ {
		end := bytes.IndexByte(lines, '\n')
		switch {
		case n-first == len(results):
			return n, errTooMany
		case end < 0:
			return n, errUnterminated
		}
		r := &results[n-first]
		if err := dec.decode(lines[:end], &targets[n-first], r); err != nil {
			return n, err
		}
		if r.Index != n {
			return n, fmt.Errorf("has index %d; output does not match checkpoint", r.Index)
		}
		lines = lines[end+1:]
	}
	return n, nil
}

// SpanDecoder reads a span's records rendered elsewhere — a distributed
// worker's report — back in as a resume reads its prefix: each record
// decoded and verified by the replay's own loop (decodeLines), then
// rendered as the span's CSV rows when the run has a CSV sink. A
// coordinator that writes only what decodes writes only records this build
// would have written for those targets. One per goroutine.
type SpanDecoder struct {
	targets           []Target
	csv               bool
	withTopo, withScn bool
	dec               recordDecoder
}

// SpanDecoder returns a decoder for spans of this run. It reads only what
// is fixed when the emitter opens, so it may be called beside EmitSpan.
func (e *Emitter) SpanDecoder() *SpanDecoder {
	d := &SpanDecoder{targets: e.cfg.Targets, dec: recordDecoder{scratch: make([]byte, 0, decoderScratch)}}
	if cs := e.sinks.csv; cs != nil {
		d.csv, d.withTopo, d.withScn = true, cs.withTopo, cs.withScn
	}
	return d
}

// Decode decodes jsonb, the JSONL records of the span [lo, lo+len(results)),
// into results: there must be exactly one canonical, newline-terminated
// record per target, in index order. When the run has a CSV sink the span's
// rows are appended to csv, which is returned. On an error results is
// partly overwritten and csv unchanged.
func (d *SpanDecoder) Decode(lo int, jsonb []byte, results []TargetResult, csv []byte) ([]byte, error) {
	hi := lo + len(results)
	if lo < 0 || hi > len(d.targets) {
		return csv, fmt.Errorf("campaign: span [%d,%d) outside the %d targets", lo, hi, len(d.targets))
	}
	n, err := decodeLines(&d.dec, jsonb, d.targets[lo:hi], results, lo)
	if err != nil {
		return csv, fmt.Errorf("campaign: span [%d,%d) record %d %w", lo, hi, n, err)
	}
	if n < hi {
		return csv, fmt.Errorf("campaign: span [%d,%d) has %d records", lo, hi, n-lo)
	}
	if d.csv {
		for i := range results {
			csv = appendCSVRow(csv, &results[i], d.withTopo, d.withScn)
		}
	}
	return csv, nil
}

// fail records that record at failed with err; the lowest record's error
// is the one reported.
func (rp *replay) fail(at int, err error) {
	rp.mu.Lock()
	rp.failLocked(at, err)
	rp.mu.Unlock()
}

func (rp *replay) failLocked(at int, err error) {
	if at < rp.errAt {
		rp.errAt, rp.err = at, err
	}
}

// rebuildCSV writes the replayed prefix's rows to cs in index order. Up to
// GOMAXPROCS goroutines each render replayRange records at a time into a
// buffer of their own, and take turns at the sink in index order.
func rebuildCSV(cs *CSVSink, replayed []TargetResult) error {
	workers := rangeWorkers(len(replayed), runtime.GOMAXPROCS(0))
	rb := &csvRebuild{bufs: make([][]byte, workers)}
	rb.turn.L = &rb.mu
	// One allocation holds every buffer, each sized for a range of typical
	// rows; a longer range grows its own.
	const rowBytes = 192
	store := make([]byte, workers*replayRange*rowBytes)
	for w := range rb.bufs {
		at := w * replayRange * rowBytes
		rb.bufs[w] = store[at : at : at+replayRange*rowBytes]
	}
	forRanges(len(replayed), workers, func(w, lo, hi int) {
		buf := rb.bufs[w][:0]
		for i := lo; i < hi; i++ {
			buf = appendCSVRow(buf, &replayed[i], cs.withTopo, cs.withScn)
		}
		rb.bufs[w] = buf
		rb.mu.Lock()
		for rb.next != lo {
			rb.turn.Wait()
		}
		rb.mu.Unlock()
		// The turn is this range's alone until next moves on.
		if rb.err == nil {
			rb.err = cs.EmitBatch(buf)
		}
		rb.mu.Lock()
		rb.next = hi
		rb.turn.Broadcast()
		rb.mu.Unlock()
	})
	return rb.err
}

// csvRebuild is one rebuildCSV call's shared state: the write turn passes
// from range to range in index order.
type csvRebuild struct {
	bufs [][]byte
	mu   sync.Mutex
	turn sync.Cond
	next int   // the first record not yet written; guarded by mu
	err  error // the sink's first error; only the turn's holder touches it
}

// rangeWorkers is how many goroutines forRanges puts on n records: no
// more than there are ranges, nor than limit.
func rangeWorkers(n, limit int) int {
	return min(limit, (n+replayRange-1)/replayRange)
}

// forRanges calls fn on consecutive ranges of at most replayRange of n
// records, claimed in index order by up to workers goroutines (see
// parallel), no more than there are ranges. worker, in [0, workers), names
// the goroutine, so per-goroutine state needs no lock.
func forRanges(n, workers int, fn func(worker, lo, hi int)) {
	var next atomic.Int64
	parallel(max(rangeWorkers(n, workers), 1), func(w int) {
		for {
			lo := int(next.Add(1)-1) * replayRange
			if lo >= n {
				return
			}
			fn(w, lo, min(lo+replayRange, n))
		}
	})
}

// parallel runs fn(0) … fn(workers-1) at once, fn(0) on the caller's
// goroutine — alone, inline, when workers is 1 — and returns when all have.
func parallel(workers int, fn func(worker int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(0)
	wg.Wait()
}
