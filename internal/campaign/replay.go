package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
)

// A resume replays the checkpointed JSONL prefix in one pass, the way a
// coordinator takes a worker's report (SpanDecoder), on a fixed number of
// goroutines and buffers however long the prefix is (inline at
// GOMAXPROCS=1). The file is read once, in blocks of whole lines, which up
// to min(GOMAXPROCS, aggregator shards) decoders take in turn; each
// verifies its block's records (decodeLines), folds them into its own shard
// and renders their CSV rows, written in block order to <csv>.tmp. Only
// when every record has verified is the JSONL truncated and the temp
// renamed over the CSV, so a refused resume leaves every file as it was.
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
)

// replayOutput opens the sinks of a run resumed after done > 0 records:
// it reads them back from the JSONL output (record i decoded against
// cfg.Targets[i], see recordDecoder), folds them into agg, renders the CSV
// afresh (a quoted field may hold a newline, so CSV rows cannot be
// counted), and truncates the JSONL past them (a crash may have written
// results the checkpoint never acknowledged; they are re-probed).
func replayOutput(cfg Config, done int, agg *Aggregator) (sinkSet, error) {
	if cfg.OutputPath == "" {
		return sinkSet{}, fmt.Errorf("campaign: resume requires OutputPath (the checkpoint replays from it)")
	}
	f, err := os.OpenFile(cfg.OutputPath, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return sinkSet{}, err
	}
	sinks := sinkSet{jsonl: NewJSONLSink(f)}
	var csvPath, tmp string // the CSV's file, and the one its rows go to
	fail := func(err error) (sinkSet, error) {
		sinks.close()
		if tmp != csvPath {
			os.Remove(tmp)
		}
		return sinkSet{}, err
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if cfg.CSVPath != "" {
		csvPath, tmp = csvTarget(cfg.CSVPath)
		cf, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return fail(err)
		}
		sinks.csv = NewCSVSink(cf, hasTopology(cfg.Targets), hasScenario(cfg.Targets))
	}
	decoders := min(replayDecoders(fi.Size()), len(agg.shards))
	offset, err := replayRecords(f, cfg.OutputPath, cfg.Targets, done, replayBlockBytes, decoders, agg, sinks.csv)
	if err != nil {
		return fail(err)
	}
	if err := f.Truncate(offset); err != nil {
		return fail(err)
	}
	if tmp != csvPath {
		// The open temp becomes the run's CSV file, its rows the prefix's.
		if err := os.Rename(tmp, csvPath); err != nil {
			return fail(err)
		}
	}
	return sinks, nil
}

// csvTarget returns the CSV's file — path, or the file a symlink at path
// names, so the link stays — and the temp renamed over it once every record
// has verified. A device or a pipe must not be replaced: it is its own tmp.
func csvTarget(path string) (target, tmp string) {
	fi, err := os.Lstat(path)
	if err == nil && fi.Mode()&os.ModeSymlink != 0 {
		if resolved, rerr := filepath.EvalSymlinks(path); rerr == nil {
			path = resolved
			fi, err = os.Stat(path)
		}
	}
	if err == nil && !fi.Mode().IsRegular() {
		return path, path
	}
	return path, path + ".tmp"
}

// replayDecoders is how many decoders a file of size bytes gets: one per
// whole block it holds, at least one and at most GOMAXPROCS, so a prefix
// shorter than two blocks is decoded inline.
func replayDecoders(size int64) int {
	return int(min(int64(runtime.GOMAXPROCS(0)), max(1, size/replayBlockBytes)))
}

// replay is one replayRecords call's shared state.
type replay struct {
	name      string
	targets   []Target
	done      int
	agg       *Aggregator // decoder g folds into shard g
	csv       *CSVSink    // the records' rows go to it in index order; nil: none
	blockSize int
	rowBytes  int            // a decoder's room for its block's rows
	perBlock  int            // a decoder's room for its block's records
	store     []byte         // the decoders' blocks, scratch and rows
	records   []TargetResult // the decoders' results buffers

	wg      sync.WaitGroup // the decoders on goroutines of their own
	mu      sync.Mutex     // guards the rest: the read position, the CSV turn and the first error
	turn    sync.Cond      // on mu: written moved on, or a record failed
	src     io.Reader
	carry   []byte // the partial line the last block read ended with
	n       int    // records handed out to decode
	offset  int64  // their bytes
	eof     bool
	written int // records whose rows are in csv
	errAt   int // index of the lowest failing record so far; done when none
	err     error
}

// replayBlock is a decoder's run of whole newline-terminated records, the
// index of its first, and the decoder's storage for them.
type replayBlock struct {
	buf     []byte // the decoder's storage, reused; lines is its prefix
	lines   []byte
	first   int
	count   int            // records in lines
	results []TargetResult // the block's records, decoded
	rows    []byte         // the block's CSV rows
}

// replayRecords decodes and verifies the first done newline-terminated
// records of src, folds each into agg and writes their rows to csv (when
// not nil) in index order, and returns the records' length in bytes. Each
// of decoders goroutines — decoder 0 the caller's, so one decoder runs
// inline — owns one block of blockSize bytes (blockSize > 0): it reads the
// next run of whole lines into it, in turn with the others, then decodes,
// folds and renders it, and writes its rows when every earlier block's
// are. agg has at least decoders shards.
func replayRecords(src io.Reader, name string, targets []Target, done, blockSize, decoders int, agg *Aggregator, csv *CSVSink) (int64, error) {
	rp := &replay{name: name, targets: targets, done: done, agg: agg, csv: csv, blockSize: blockSize,
		perBlock: max(1, blockSize/256), src: src, errAt: done}
	if csv != nil {
		// A record's row is shorter than its line.
		rp.rowBytes = blockSize
	}
	// One allocation holds every decoder's block, scratch and rows, and one
	// more their results, with room for a block of typical records (a block
	// of shorter ones grows its decoder's).
	rp.store = make([]byte, decoders*(blockSize+decoderScratch+rp.rowBytes))
	rp.records = make([]TargetResult, decoders*rp.perBlock)
	rp.turn.L = &rp.mu
	rp.wg.Add(decoders - 1)
	for g := 1; g < decoders; g++ {
		go func() {
			defer rp.wg.Done()
			rp.decoder(g)
		}()
	}
	rp.decoder(0)
	rp.wg.Wait()
	if rp.err != nil {
		return 0, rp.err
	}
	if rp.n < done {
		return 0, fmt.Errorf("campaign: %s has %d records but checkpoint says %d emitted",
			name, rp.n, done)
	}
	return rp.offset, nil
}

// decoder is decoder g: it reads the next block into its own storage and
// decodes it until there is none.
func (rp *replay) decoder(g int) {
	at := g * (rp.blockSize + decoderScratch + rp.rowBytes)
	b := replayBlock{buf: rp.store[at : at : at+rp.blockSize]}
	at += rp.blockSize
	dec := recordDecoder{scratch: rp.store[at : at : at+decoderScratch]}
	at += decoderScratch
	b.rows = rp.store[at : at : at+rp.rowBytes]
	b.results = rp.records[g*rp.perBlock : g*rp.perBlock : (g+1)*rp.perBlock]
	for rp.next(&b) {
		rp.decode(&dec, &b, rp.agg.shards[g])
	}
}

// next reads the next run of whole lines into b, reporting false when there
// is none to decode: the prefix is read, src ended or failed, or a record
// failed.
func (rp *replay) next(b *replayBlock) bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	done := rp.done
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
	b.lines, b.first, b.count = lines, rp.n, k
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

// decode decodes and verifies one block, stopping at its first failing
// record, folds its records into shard, and renders and writes its CSV
// rows.
func (rp *replay) decode(dec *recordDecoder, b *replayBlock, shard *Shard) {
	b.results = slices.Grow(b.results[:0], b.count)[:b.count]
	if n, err := decodeLines(dec, b.lines, rp.targets[b.first:], b.results, b.first); err != nil {
		rp.fail(n, fmt.Errorf("campaign: %s record %d %w", rp.name, n, err))
		return
	}
	for i := range b.results {
		shard.Add(&b.results[i])
	}
	if rp.csv != nil {
		b.rows = b.rows[:0]
		for i := range b.results {
			b.rows = appendCSVRow(b.rows, &b.results[i], rp.csv.withTopo, rp.csv.withScn)
		}
		rp.write(b)
	}
}

// write writes b's rows once every earlier block's are: the turn passes
// from block to block in index order. Once a record has failed nothing more
// is written.
func (rp *replay) write(b *replayBlock) {
	rp.mu.Lock()
	for rp.written != b.first && rp.err == nil {
		rp.turn.Wait()
	}
	failed := rp.err != nil
	rp.mu.Unlock()
	if failed {
		return
	}
	// The turn is this block's alone until written moves on.
	err := rp.csv.EmitBatch(b.rows)
	rp.mu.Lock()
	if err != nil {
		rp.failLocked(b.first, err)
	}
	rp.written = b.first + b.count
	rp.turn.Broadcast()
	rp.mu.Unlock()
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
	// A decoder waiting for its turn to write stops waiting.
	rp.turn.Broadcast()
}
