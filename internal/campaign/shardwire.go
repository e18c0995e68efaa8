package campaign

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"reorder/internal/ipid"
	"reorder/internal/stats"
)

// A shard delta is the binary wire form of a Shard: what a remote worker
// accumulated over one span, folded into the coordinator's aggregator at
// emit time. Because Shard.Add is a pure function of result fields and
// histogram merging is integer bin addition, folding per-span deltas yields
// exactly the aggregate a single process would have built — the property
// that makes distributed campaign summaries byte-identical to local ones.
//
// Every number is an unsigned varint except a histogram's min and max,
// which travel as little-endian IEEE-754 bit patterns so they arrive
// exact:
//
//	delta   = counter×6 hist×4 uvarint(#dct) {string counter}
//	          uvarint(#tests) {string counter×4 hist hist}
//	counter = uvarint, at most math.MaxInt
//	string  = uvarint(len) bytes
//	hist    = uvarint(n), and when n > 0: min:8 max:8
//	          uvarint(#bins) {uvarint(index) uvarint(count)}
//
// The six shard counters are targets, errors, measured, excluded,
// with-reordering and retried; the four histograms path rates, RTTs,
// extents and exposure; a test's four counters measured, errors, excluded
// and with-reordering, then its forward and reverse rates. All-zero tests
// are left out (a reset shard keeps its test slices), so map order is the
// only freedom the encoding has.

// NewShard returns an empty standalone shard, for callers outside the
// worker-indexed Aggregator layout (remote workers accumulate per-span
// deltas in one of these, encode it, and reset).
func NewShard() *Shard { return newShard() }

// AppendDelta appends the shard's contents in the delta encoding to dst.
// A warmed shard encodes without allocating.
func (s *Shard) AppendDelta(dst []byte) []byte {
	for _, v := range [...]int{s.targets, s.errors, s.measured, s.excluded, s.withReordering, s.retried} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	for _, h := range [...]*stats.Histogram{s.pathRates, s.rtts, s.extents, s.exposure} {
		dst = s.appendHist(dst, h)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.dctExcluded)))
	for k, v := range s.dctExcluded {
		dst = binary.AppendUvarint(appendString(dst, k), uint64(v))
	}
	n := 0
	for _, ts := range s.perTest {
		if !ts.empty() {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for name, ts := range s.perTest {
		if ts.empty() {
			continue
		}
		dst = appendString(dst, name)
		for _, v := range [...]int{ts.measured, ts.errors, ts.excluded, ts.withReordering} {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
		dst = s.appendHist(s.appendHist(dst, ts.fwdRates), ts.revRates)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendHist encodes h through the shard's reused counts.
func (s *Shard) appendHist(dst []byte, h *stats.Histogram) []byte {
	h.CountsInto(&s.counts)
	c := &s.counts
	dst = binary.AppendUvarint(dst, c.N)
	if c.N == 0 {
		return dst
	}
	dst = binary.LittleEndian.AppendUint64(dst, c.MinBits)
	dst = binary.LittleEndian.AppendUint64(dst, c.MaxBits)
	dst = binary.AppendUvarint(dst, uint64(len(c.Bins)/2))
	for _, v := range c.Bins {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// empty reports whether a test slice holds nothing: no counter and no
// sample. Add never leaves one so; Reset does.
func (ts *testShard) empty() bool {
	return ts.measured == 0 && ts.errors == 0 && ts.excluded == 0 && ts.withReordering == 0 &&
		ts.fwdRates.Count() == 0 && ts.revRates.Count() == 0
}

// MergeDelta folds one delta into the shard. Deltas arrive over the wire,
// so a malformed one returns an error instead of panicking: truncated or
// trailing bytes, a counter or histogram count the shard's int counters
// cannot hold, a zero exclusion count or an all-zero test (the encoder
// writes neither), more bin pairs than the histogram has bins (refused
// before any is read), and whatever Histogram.MergeCounts refuses — bins that
// do not sum to n, an empty or out-of-range bin, a NaN or inverted
// min/max. A failed merge may leave the shard partially updated, so a
// caller that must not be poisoned checks a delta on a scratch shard
// first. Merging into a warmed shard allocates nothing.
func (s *Shard) MergeDelta(b []byte) error {
	d := deltaReader{b: b}
	for _, c := range [...]*int{&s.targets, &s.errors, &s.measured, &s.excluded, &s.withReordering, &s.retried} {
		d.addTo(c, d.count())
	}
	for _, h := range [...]*stats.Histogram{s.pathRates, s.rtts, s.extents, s.exposure} {
		s.mergeHist(&d, h)
	}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		key := d.bytes()
		v := d.count()
		if d.err == nil && v == 0 {
			d.fail("zero dct exclusion count for %q", key)
		}
		if d.err != nil {
			break
		}
		k := exclusionReason(key)
		sum := s.dctExcluded[k]
		if d.addTo(&sum, v); d.err == nil {
			s.dctExcluded[k] = sum
		}
	}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		name := d.bytes()
		var c [4]int
		for i := range c {
			c[i] = d.count()
		}
		if d.err != nil {
			break
		}
		ts := s.perTest[string(name)]
		if ts == nil {
			ts = newTestShard()
			s.perTest[string(name)] = ts
		}
		for i, dst := range [...]*int{&ts.measured, &ts.errors, &ts.excluded, &ts.withReordering} {
			d.addTo(dst, c[i])
		}
		samples := s.mergeHist(&d, ts.fwdRates) + s.mergeHist(&d, ts.revRates)
		if d.err == nil && c == [4]int{} && samples == 0 {
			d.fail("all-zero test %q", name)
		}
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// exclusionReason returns the constant for one of the two reasons probing
// records, so that counting them makes no string, and a copy of any other.
func exclusionReason(key []byte) string {
	switch string(key) {
	case ipid.ReasonZero:
		return ipid.ReasonZero
	case ipid.ReasonNonMonotonic:
		return ipid.ReasonNonMonotonic
	}
	return string(key)
}

// mergeHist decodes one histogram into the shard's reused counts, folds it
// into h, which is the one validator of a histogram delta, and returns its
// sample count.
func (s *Shard) mergeHist(d *deltaReader, h *stats.Histogram) uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(math.MaxInt-h.Count()) {
		d.fail("histogram count %d overflows", n)
	}
	if d.err != nil {
		return 0
	}
	c := &s.counts
	*c = stats.HistogramCounts{N: n, Bins: c.Bins[:0]}
	if n > 0 {
		c.MinBits = d.uint64()
		c.MaxBits = d.uint64()
		pairs := d.uvarint()
		if d.err == nil && pairs > uint64(h.NumBins()) {
			d.fail("%d bin pairs for %d bins", pairs, h.NumBins())
		}
		for ; pairs > 0 && d.err == nil; pairs-- {
			c.Bins = append(c.Bins, d.uvarint(), d.uvarint())
		}
	}
	if d.err == nil {
		if err := h.MergeCounts(*c); err != nil {
			d.err = fmt.Errorf("campaign: shard delta: %w", err)
		}
	}
	return n
}

// deltaReader consumes a delta; the first error sticks, and every read
// after it returns zero.
type deltaReader struct {
	b   []byte
	err error
}

var errDeltaTruncated = errors.New("campaign: shard delta truncated")

func (d *deltaReader) fail(format string, args ...any) {
	d.err = fmt.Errorf("campaign: shard delta: "+format, args...)
}

func (d *deltaReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n < 0 {
		d.fail("varint overflows 64 bits")
	} else if n == 0 {
		d.err = errDeltaTruncated
	}
	if n <= 0 {
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *deltaReader) uint64() uint64 {
	if d.err == nil && len(d.b) < 8 {
		d.err = errDeltaTruncated
	}
	if d.err != nil {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *deltaReader) bytes() []byte {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = errDeltaTruncated
	}
	if d.err != nil {
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// count reads a counter, which must fit an int.
func (d *deltaReader) count() int {
	v := d.uvarint()
	if v > math.MaxInt {
		d.fail("counter %d beyond the int range", v)
		return 0
	}
	return int(v)
}

// addTo adds v to *dst unless the sum would overflow.
func (d *deltaReader) addTo(dst *int, v int) {
	if d.err != nil {
		return
	}
	if v > math.MaxInt-*dst {
		d.fail("counter overflows")
		return
	}
	*dst += v
}

// Reset empties the shard in place, keeping its allocations — test slices
// stay, zeroed — so a worker can reuse one shard as a per-span delta
// accumulator and a coordinator one as a delta checker.
func (s *Shard) Reset() {
	s.targets, s.errors, s.measured, s.excluded = 0, 0, 0, 0
	s.withReordering, s.retried = 0, 0
	for k := range s.dctExcluded {
		delete(s.dctExcluded, k)
	}
	for _, ts := range s.perTest {
		ts.measured, ts.errors, ts.excluded, ts.withReordering = 0, 0, 0, 0
		ts.fwdRates.Reset()
		ts.revRates.Reset()
	}
	s.pathRates.Reset()
	s.rtts.Reset()
	s.extents.Reset()
	s.exposure.Reset()
}
