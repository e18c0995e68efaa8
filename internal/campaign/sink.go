package campaign

import (
	"bufio"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// fileSink is the buffered writer the campaign's two output sinks share:
// results arrive in target-index order as whole pre-rendered spans, so a
// sink never reorders anything and its memory stays constant however large
// the campaign is.
type fileSink struct {
	bw *bufio.Writer
	c  io.Closer
}

// newFileSink wraps w. If w is an io.Closer it is closed by Close.
func newFileSink(w io.Writer) fileSink {
	s := fileSink{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Flush forces buffered bytes to the underlying writer. The campaign
// flushes both sinks before saving a checkpoint, so the durable output can
// never lag behind the acknowledged count.
func (s *fileSink) Flush() error { return s.bw.Flush() }

// Close flushes the sink and closes the underlying writer if it is an
// io.Closer.
func (s *fileSink) Close() error {
	err := s.bw.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// JSONLSink streams one JSON object per line. Field order is fixed by the
// TargetResult struct, which makes the stream byte-reproducible and
// therefore checkpoint-resumable: a resume accepts the file's records only
// in exactly this form.
type JSONLSink struct{ fileSink }

// NewJSONLSink wraps w. If w is an io.Closer it is closed by Close.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{newFileSink(w)} }

// EmitBatch writes a batch of pre-encoded, newline-terminated records in
// one Write — the in-order emit's half of the campaign's batched
// pipeline (workers render records with TargetResult.AppendJSON as they
// finish; the serial path just concatenates).
func (s *JSONLSink) EmitBatch(records []byte) error {
	_, err := s.bw.Write(records)
	return err
}

// CSVSink streams results as CSV in the same idiom as the experiment
// reports (internal/experiments/csv.go): shortest-roundtrip floats, one
// documented column set, encoding/csv's quoting. The header is written
// before the first row; on resume the replay renders the file afresh from
// the verified prefix rather than appending.
type CSVSink struct {
	fileSink
	wroteHead bool
	withTopo  bool
	withScn   bool
}

// csvHeader is the column set, aligned with TargetResult's JSON fields.
// Like the JSONL record it is append-only: new columns go at the end so
// old campaign outputs stay parseable by position.
const csvHeader = "index,name,profile,impairment,test,seed,attempts," +
	"error,dct_excluded,fwd_valid,fwd_reordered,fwd_rate," +
	"rev_valid,rev_reordered,rev_rate,any_reordering,rtt_us," +
	"seq_ratio,seq_received,seq_max_extent,seq_n_reordering," +
	"seq_dupthresh_exposure"

// NewCSVSink wraps w. If w is an io.Closer it is closed by Close. withTopo
// adds the append-only "topology" column to the header and every row, and
// withScn the "scenario" column after it. The campaign sets each exactly
// when the target list has topology (scenario) targets — a deterministic
// function of the targets, so resumed runs make the same choice — which
// leaves classic campaigns' CSV output byte-identical to pre-topology
// builds.
func NewCSVSink(w io.Writer, withTopo, withScn bool) *CSVSink {
	return &CSVSink{fileSink: newFileSink(w), withTopo: withTopo, withScn: withScn}
}

// appendCSVRow appends r's row in csvHeader order (plus the optional
// trailing topology and scenario columns) and its line terminator. It is
// the one CSV renderer — the workers' ProbeStep, CSVRowEncoder, the
// coordinator's SpanDecoder and the resume's replay all call it — and its
// bytes equal encoding/csv's over the same fields, which FuzzCSVRow holds
// it to.
func appendCSVRow(dst []byte, r *TargetResult, withTopo, withScn bool) []byte {
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, ',')
	dst = appendCSVString(dst, r.Name)
	dst = append(dst, ',')
	dst = appendCSVString(dst, r.Profile)
	dst = append(dst, ',')
	dst = appendCSVString(dst, r.Impairment)
	dst = append(dst, ',')
	dst = appendCSVString(dst, r.Test)
	dst = append(dst, ',')
	dst = strconv.AppendUint(dst, r.Seed, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.Attempts), 10)
	dst = append(dst, ',')
	dst = appendCSVString(dst, r.Err)
	dst = append(dst, ',')
	dst = appendCSVString(dst, r.DCTExcluded)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.FwdValid), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.FwdReordered), 10)
	dst = append(dst, ',')
	dst = appendCSVFloat(dst, r.FwdRate)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.RevValid), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.RevReordered), 10)
	dst = append(dst, ',')
	dst = appendCSVFloat(dst, r.RevRate)
	dst = append(dst, ',')
	dst = strconv.AppendBool(dst, r.AnyReordering)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, r.RTTMicros, 10)
	dst = append(dst, ',')
	dst = appendCSVFloat(dst, r.SeqRatio)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.SeqReceived), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.SeqMaxExtent), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.SeqNReordering), 10)
	dst = append(dst, ',')
	dst = appendCSVFloat(dst, r.SeqDupthreshExposure)
	if withTopo {
		dst = append(dst, ',')
		dst = appendCSVString(dst, r.Topology)
	}
	if withScn {
		dst = append(dst, ',')
		dst = appendCSVString(dst, r.Scenario)
	}
	return append(dst, '\n')
}

// appendCSVFloat renders the shortest representation that round-trips; no
// form of it ('g': digits, sign, '.', 'e', NaN, Inf) ever needs quoting.
func appendCSVFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// appendCSVString appends one field under encoding/csv's writer rules: a
// field is quoted when it holds a comma, quote, CR or LF, starts with a
// space (unicode.IsSpace of the first rune), or is exactly `\.` (Postgres'
// end-of-data marker); inside quotes only '"' changes, doubled.
func appendCSVString(dst []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, s[i])
	}
	return append(dst, '"')
}

func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// writeHeader writes the column header once.
func (s *CSVSink) writeHeader() error {
	if s.wroteHead {
		return nil
	}
	s.wroteHead = true
	head := csvHeader
	if s.withTopo {
		head += ",topology"
	}
	if s.withScn {
		head += ",scenario"
	}
	_, err := s.bw.WriteString(head + "\n")
	return err
}

// EmitBatch writes a batch of rows pre-encoded by a CSVRowEncoder in one
// Write, emitting the header first if no row preceded it.
func (s *CSVSink) EmitBatch(rows []byte) error {
	if err := s.writeHeader(); err != nil {
		return err
	}
	_, err := s.bw.Write(rows)
	return err
}

// CSVRowEncoder renders TargetResults to CSV row bytes, appended to a
// buffer the caller owns: the rows a campaign's workers render, for a
// caller outside this package to write with CSVSink.EmitBatch.
type CSVRowEncoder struct {
	withTopo bool
	withScn  bool
}

// NewCSVRowEncoder returns an encoder for the classic column set.
func NewCSVRowEncoder() *CSVRowEncoder { return &CSVRowEncoder{} }

// IncludeTopology adds the "topology" column, as NewCSVSink's withTopo
// does; set both from the same predicate so rows match the sink's header.
func (e *CSVRowEncoder) IncludeTopology() { e.withTopo = true }

// IncludeScenario adds the "scenario" column, as NewCSVSink's withScn does.
func (e *CSVRowEncoder) IncludeScenario() { e.withScn = true }

// AppendRow appends r's encoded CSV row (with line terminator) to dst.
// Rendering cannot fail: the error is always nil, and is in the signature
// for the callers outside this package that check it.
func (e *CSVRowEncoder) AppendRow(dst []byte, r *TargetResult) ([]byte, error) {
	return appendCSVRow(dst, r, e.withTopo, e.withScn), nil
}
