package campaign

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the record's JSON encoding to dst and returns the
// extended slice. The output is byte-identical to encoding/json.Marshal of
// the same record (field order, omitempty, string escaping and float
// formatting included) — pinned by TestAppendJSONMatchesMarshal — while
// allocating nothing beyond dst growth. The JSONL sink emits millions of
// records per campaign through this path instead of reflective marshaling.
func (r *TargetResult) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, r.Name)
	dst = append(dst, `,"profile":`...)
	dst = appendJSONString(dst, r.Profile)
	dst = append(dst, `,"impairment":`...)
	dst = appendJSONString(dst, r.Impairment)
	dst = append(dst, `,"test":`...)
	dst = appendJSONString(dst, r.Test)
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendUint(dst, r.Seed, 10)
	dst = append(dst, `,"attempts":`...)
	dst = strconv.AppendInt(dst, int64(r.Attempts), 10)
	if r.Err != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, r.Err)
	}
	if r.DCTExcluded != "" {
		dst = append(dst, `,"dct_excluded":`...)
		dst = appendJSONString(dst, r.DCTExcluded)
	}
	dst = append(dst, `,"fwd_valid":`...)
	dst = strconv.AppendInt(dst, int64(r.FwdValid), 10)
	dst = append(dst, `,"fwd_reordered":`...)
	dst = strconv.AppendInt(dst, int64(r.FwdReordered), 10)
	dst = append(dst, `,"fwd_rate":`...)
	dst = appendJSONFloat(dst, r.FwdRate)
	dst = append(dst, `,"rev_valid":`...)
	dst = strconv.AppendInt(dst, int64(r.RevValid), 10)
	dst = append(dst, `,"rev_reordered":`...)
	dst = strconv.AppendInt(dst, int64(r.RevReordered), 10)
	dst = append(dst, `,"rev_rate":`...)
	dst = appendJSONFloat(dst, r.RevRate)
	dst = append(dst, `,"any_reordering":`...)
	dst = strconv.AppendBool(dst, r.AnyReordering)
	dst = append(dst, `,"rtt_us":`...)
	dst = strconv.AppendInt(dst, r.RTTMicros, 10)
	if r.SeqRatio != 0 {
		dst = append(dst, `,"seq_ratio":`...)
		dst = appendJSONFloat(dst, r.SeqRatio)
	}
	if r.SeqReceived != 0 {
		dst = append(dst, `,"seq_received":`...)
		dst = strconv.AppendInt(dst, int64(r.SeqReceived), 10)
	}
	if r.SeqMaxExtent != 0 {
		dst = append(dst, `,"seq_max_extent":`...)
		dst = strconv.AppendInt(dst, int64(r.SeqMaxExtent), 10)
	}
	if r.SeqNReordering != 0 {
		dst = append(dst, `,"seq_n_reordering":`...)
		dst = strconv.AppendInt(dst, int64(r.SeqNReordering), 10)
	}
	if r.SeqDupthreshExposure != 0 {
		dst = append(dst, `,"seq_dupthresh_exposure":`...)
		dst = appendJSONFloat(dst, r.SeqDupthreshExposure)
	}
	if r.Topology != "" {
		dst = append(dst, `,"topology":`...)
		dst = appendJSONString(dst, r.Topology)
	}
	if r.Scenario != "" {
		dst = append(dst, `,"scenario":`...)
		dst = appendJSONString(dst, r.Scenario)
	}
	return append(dst, '}')
}

// appendJSONFloat replicates encoding/json's float64 encoding: shortest
// representation, 'f' form except for magnitudes below 1e-6 or at least
// 1e21, which use 'e' form with a trimmed two-digit negative exponent.
func appendJSONFloat(dst []byte, f float64) []byte {
	fmtByte := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmtByte = 'e'
	}
	dst = strconv.AppendFloat(dst, f, fmtByte, -1, 64)
	if fmtByte == 'e' {
		// encoding/json trims "e-09" style exponents to "e-9".
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString replicates encoding/json's string encoding with its
// default HTML escaping: quotes, backslashes and control characters are
// escaped, as are '<', '>', '&', U+2028 and U+2029; invalid UTF-8 becomes
// the escape sequence \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonSafe reports whether b may appear literally in a JSON string under
// encoding/json's default (HTML-escaping) rules.
func jsonSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// recordDecoder is the inverse of AppendJSON for the one reader of the
// campaign's own JSONL: the resume replay. It is not a JSON parser. It
// walks a line in AppendJSON's fixed key order, with the same omitempty
// set and no whitespace, and then accepts the record only if the decoded
// value re-renders through AppendJSON to exactly the line's bytes — so it
// cannot diverge from the encoder without refusing every record, and a
// line this build would not have written (re-serialised by another tool,
// edited, from another schema) is refused rather than half-understood.
type recordDecoder struct {
	line []byte
	pos  int
	// scratch holds, in turn, an identity field's encoding, an escaped
	// string being unescaped, and the round-trip render.
	scratch []byte
	// wrongTarget records that the walk stopped at a well-formed identity
	// field holding another target's value.
	wrongTarget bool
}

var (
	errNotCanonical = errors.New("not in the form this build writes")
	errWrongTarget  = errors.New("is not the record of the target at its position; output does not match checkpoint")
)

// decode fills r from line, which must be the record of target t (without
// its newline). The identity fields — name, profile, impairment, test,
// seed, topology, scenario — must equal t's and take t's own strings, so a
// clean record allocates nothing; only error and dct_excluded allocate,
// when present. A record with an invalid-UTF-8 byte in those two is
// refused: AppendJSON wrote the byte as \ufffd, which no decoded string
// renders back to, and replaying a different string would change the
// rebuilt CSV.
func (d *recordDecoder) decode(line []byte, t *Target, r *TargetResult) error {
	d.line, d.pos, d.wrongTarget = line, 0, false
	*r = TargetResult{
		Name: t.Name, Profile: t.Profile, Impairment: t.Impairment, Test: t.Test,
		Topology: t.Topology, Scenario: t.Scenario,
	}
	ok := d.lit(`{"index":`) && d.readInt(&r.Index) &&
		d.identity(`,"name":`, t.Name) &&
		d.identity(`,"profile":`, t.Profile) &&
		d.identity(`,"impairment":`, t.Impairment) &&
		d.identity(`,"test":`, t.Test) &&
		d.lit(`,"seed":`) && d.readUint(&r.Seed) && d.sameTarget(r.Seed == t.Seed) &&
		d.lit(`,"attempts":`) && d.readInt(&r.Attempts) &&
		(!d.lit(`,"error":`) || d.readString(&r.Err)) &&
		(!d.lit(`,"dct_excluded":`) || d.readExcluded(&r.DCTExcluded)) &&
		d.lit(`,"fwd_valid":`) && d.readInt(&r.FwdValid) &&
		d.lit(`,"fwd_reordered":`) && d.readInt(&r.FwdReordered) &&
		d.lit(`,"fwd_rate":`) && d.readFloat(&r.FwdRate) &&
		d.lit(`,"rev_valid":`) && d.readInt(&r.RevValid) &&
		d.lit(`,"rev_reordered":`) && d.readInt(&r.RevReordered) &&
		d.lit(`,"rev_rate":`) && d.readFloat(&r.RevRate) &&
		d.lit(`,"any_reordering":`) && d.readBool(&r.AnyReordering) &&
		d.lit(`,"rtt_us":`) && d.readInt64(&r.RTTMicros) &&
		(!d.lit(`,"seq_ratio":`) || d.readFloat(&r.SeqRatio)) &&
		(!d.lit(`,"seq_received":`) || d.readInt(&r.SeqReceived)) &&
		(!d.lit(`,"seq_max_extent":`) || d.readInt(&r.SeqMaxExtent)) &&
		(!d.lit(`,"seq_n_reordering":`) || d.readInt(&r.SeqNReordering)) &&
		(!d.lit(`,"seq_dupthresh_exposure":`) || d.readFloat(&r.SeqDupthreshExposure)) &&
		(t.Topology == "" || d.identity(`,"topology":`, t.Topology)) &&
		(t.Scenario == "" || d.identity(`,"scenario":`, t.Scenario)) &&
		d.lit(`}`) && d.pos == len(line)
	if d.wrongTarget {
		return errWrongTarget
	}
	if ok {
		d.scratch = r.AppendJSON(d.scratch[:0])
		ok = bytes.Equal(d.scratch, line)
	}
	if !ok {
		return errNotCanonical
	}
	return nil
}

// lit consumes s if the input continues with it.
func (d *recordDecoder) lit(s string) bool {
	rest := d.line[d.pos:]
	if len(rest) < len(s) || string(rest[:len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// identity consumes key and the JSON encoding of want, the only string the
// record of this target may carry there.
func (d *recordDecoder) identity(key, want string) bool {
	if !d.lit(key) {
		return false
	}
	// Names rarely need escaping: try want verbatim between quotes before
	// encoding it. Should want need escapes and still match verbatim, the
	// line is not canonical and the round-trip check refuses it.
	rest := d.line[d.pos:]
	if n := len(want); len(rest) >= n+2 && rest[0] == '"' && rest[n+1] == '"' && string(rest[1:n+1]) == want {
		d.pos += n + 2
		return true
	}
	d.scratch = appendJSONString(d.scratch[:0], want)
	if !d.sameTarget(bytes.HasPrefix(rest, d.scratch)) {
		return false
	}
	d.pos += len(d.scratch)
	return true
}

// sameTarget notes a failed identity comparison and passes same through.
func (d *recordDecoder) sameTarget(same bool) bool {
	if !same {
		d.wrongTarget = true
	}
	return same
}

// readUint consumes a run of digits. Overflow wraps: the wrapped value then
// renders to something other than the digits read, and the round-trip
// check refuses the record.
func (d *recordDecoder) readUint(v *uint64) bool {
	start := d.pos
	var n uint64
	for d.pos < len(d.line) && d.line[d.pos]-'0' <= 9 {
		n = n*10 + uint64(d.line[d.pos]-'0')
		d.pos++
	}
	*v = n
	return d.pos > start
}

func (d *recordDecoder) readInt64(v *int64) bool {
	neg := d.lit(`-`)
	var n uint64
	if !d.readUint(&n) {
		return false
	}
	*v = int64(n)
	if neg {
		*v = -*v
	}
	return true
}

func (d *recordDecoder) readInt(v *int) bool {
	var n int64
	ok := d.readInt64(&n)
	*v = int(n)
	return ok
}

func (d *recordDecoder) readBool(v *bool) bool {
	*v = d.lit(`true`)
	return *v || d.lit(`false`)
}

// readFloat consumes a number token and parses it with strconv, the
// inverse of the strconv.AppendFloat behind appendJSONFloat.
func (d *recordDecoder) readFloat(v *float64) bool {
	start := d.pos
	for d.pos < len(d.line) {
		c := d.line[d.pos]
		if c-'0' > 9 && c != '.' && c != '-' && c != '+' && c != 'e' {
			break
		}
		d.pos++
	}
	tok := d.line[start:d.pos]
	if len(tok) == 1 && tok[0] == '0' {
		// Most rates of most records.
		*v = 0
		return true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*v = f
	return err == nil
}

// readExcluded is readString for dct_excluded. This build writes one of two
// values there, and a replayed record naming one takes the constant and
// allocates nothing; anything else is read as any other string, to be
// accepted or refused by the same round trip.
func (d *recordDecoder) readExcluded(v *string) bool {
	switch {
	case d.lit(`"` + dctExcludedZeroIPID + `"`):
		*v = dctExcludedZeroIPID
	case d.lit(`"` + dctExcludedNonMonotonic + `"`):
		*v = dctExcludedNonMonotonic
	default:
		return d.readString(v)
	}
	return true
}

// readString consumes a JSON string written by appendJSONString and
// allocates its value. Escapes the encoder never writes decode to something
// that renders differently (or are refused here), so the round trip
// catches them.
func (d *recordDecoder) readString(v *string) bool {
	if !d.lit(`"`) {
		return false
	}
	rest := d.line[d.pos:]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return false
	}
	if bytes.IndexByte(rest[:end], '\\') < 0 {
		*v = string(rest[:end])
		d.pos += end + 1
		return true
	}
	out := d.scratch[:0]
	for i := 0; i < len(rest); i++ {
		switch c := rest[i]; {
		case c == '"':
			*v = string(out)
			d.scratch = out // keep what it grew to
			d.pos += i + 1
			return true
		case c != '\\':
			out = append(out, c)
		default:
			i++
			if i == len(rest) {
				return false
			}
			switch rest[i] {
			case '"', '\\':
				out = append(out, rest[i])
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				if i+4 >= len(rest) {
					return false
				}
				n, err := strconv.ParseUint(string(rest[i+1:i+5]), 16, 16)
				if err != nil {
					return false
				}
				out = utf8.AppendRune(out, rune(n))
				i += 4
			default:
				return false
			}
		}
	}
	return false
}
