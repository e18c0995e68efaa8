package campaign

import (
	"bytes"
	"errors"
	"strconv"

	"reorder/internal/canonjson"
	"reorder/internal/ipid"
)

// AppendJSON appends the record's JSON encoding to dst and returns the
// extended slice. The output is what encoding/json.Marshal writes for the
// same record (field order, omitempty, string escaping and float
// formatting included) — pinned by TestAppendJSONMatchesMarshal — but for
// canonjson's one exception: U+0008 and U+000C in a string are written
// \u0008 and \u000c, not \b and \f. It allocates nothing beyond dst growth.
// The JSONL sink emits millions of records per campaign through this path
// instead of reflective marshaling.
func (r *TargetResult) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(r.Index), 10)
	dst = append(dst, `,"name":`...)
	dst = canonjson.AppendString(dst, r.Name)
	dst = append(dst, `,"profile":`...)
	dst = canonjson.AppendString(dst, r.Profile)
	dst = append(dst, `,"impairment":`...)
	dst = canonjson.AppendString(dst, r.Impairment)
	dst = append(dst, `,"test":`...)
	dst = canonjson.AppendString(dst, r.Test)
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendUint(dst, r.Seed, 10)
	dst = append(dst, `,"attempts":`...)
	dst = strconv.AppendInt(dst, int64(r.Attempts), 10)
	if r.Err != "" {
		dst = append(dst, `,"error":`...)
		dst = canonjson.AppendString(dst, r.Err)
	}
	if r.DCTExcluded != "" {
		dst = append(dst, `,"dct_excluded":`...)
		dst = canonjson.AppendString(dst, r.DCTExcluded)
	}
	dst = append(dst, `,"fwd_valid":`...)
	dst = strconv.AppendInt(dst, int64(r.FwdValid), 10)
	dst = append(dst, `,"fwd_reordered":`...)
	dst = strconv.AppendInt(dst, int64(r.FwdReordered), 10)
	dst = append(dst, `,"fwd_rate":`...)
	dst = canonjson.AppendFloat(dst, r.FwdRate)
	dst = append(dst, `,"rev_valid":`...)
	dst = strconv.AppendInt(dst, int64(r.RevValid), 10)
	dst = append(dst, `,"rev_reordered":`...)
	dst = strconv.AppendInt(dst, int64(r.RevReordered), 10)
	dst = append(dst, `,"rev_rate":`...)
	dst = canonjson.AppendFloat(dst, r.RevRate)
	dst = append(dst, `,"any_reordering":`...)
	dst = strconv.AppendBool(dst, r.AnyReordering)
	dst = append(dst, `,"rtt_us":`...)
	dst = strconv.AppendInt(dst, r.RTTMicros, 10)
	if r.SeqRatio != 0 {
		dst = append(dst, `,"seq_ratio":`...)
		dst = canonjson.AppendFloat(dst, r.SeqRatio)
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
		dst = canonjson.AppendFloat(dst, r.SeqDupthreshExposure)
	}
	if r.Topology != "" {
		dst = append(dst, `,"topology":`...)
		dst = canonjson.AppendString(dst, r.Topology)
	}
	if r.Scenario != "" {
		dst = append(dst, `,"scenario":`...)
		dst = canonjson.AppendString(dst, r.Scenario)
	}
	return append(dst, '}')
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
	c canonjson.Cursor // the unread rest of the line
	// scratch holds, in turn, an identity field's encoding and the
	// round-trip render.
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
	d.c, d.wrongTarget = line, false
	*r = TargetResult{
		Name: t.Name, Profile: t.Profile, Impairment: t.Impairment, Test: t.Test,
		Topology: t.Topology, Scenario: t.Scenario,
	}
	c := &d.c
	ok := c.Lit(`{"index":`) && c.Int(&r.Index) &&
		d.identity(`,"name":`, t.Name) &&
		d.identity(`,"profile":`, t.Profile) &&
		d.identity(`,"impairment":`, t.Impairment) &&
		d.identity(`,"test":`, t.Test) &&
		c.Lit(`,"seed":`) && c.Uint(&r.Seed) && d.sameTarget(r.Seed == t.Seed) &&
		c.Lit(`,"attempts":`) && c.Int(&r.Attempts) &&
		(!c.Lit(`,"error":`) || c.String(&r.Err)) &&
		(!c.Lit(`,"dct_excluded":`) || d.excluded(&r.DCTExcluded)) &&
		c.Lit(`,"fwd_valid":`) && c.Int(&r.FwdValid) &&
		c.Lit(`,"fwd_reordered":`) && c.Int(&r.FwdReordered) &&
		c.Lit(`,"fwd_rate":`) && c.Float(&r.FwdRate) &&
		c.Lit(`,"rev_valid":`) && c.Int(&r.RevValid) &&
		c.Lit(`,"rev_reordered":`) && c.Int(&r.RevReordered) &&
		c.Lit(`,"rev_rate":`) && c.Float(&r.RevRate) &&
		c.Lit(`,"any_reordering":`) && c.Bool(&r.AnyReordering) &&
		c.Lit(`,"rtt_us":`) && c.Int64(&r.RTTMicros) &&
		(!c.Lit(`,"seq_ratio":`) || c.Float(&r.SeqRatio)) &&
		(!c.Lit(`,"seq_received":`) || c.Int(&r.SeqReceived)) &&
		(!c.Lit(`,"seq_max_extent":`) || c.Int(&r.SeqMaxExtent)) &&
		(!c.Lit(`,"seq_n_reordering":`) || c.Int(&r.SeqNReordering)) &&
		(!c.Lit(`,"seq_dupthresh_exposure":`) || c.Float(&r.SeqDupthreshExposure)) &&
		(t.Topology == "" || d.identity(`,"topology":`, t.Topology)) &&
		(t.Scenario == "" || d.identity(`,"scenario":`, t.Scenario)) &&
		c.Lit(`}`) && len(*c) == 0
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

// identity consumes key and the JSON encoding of want, the only string the
// record of this target may carry there.
func (d *recordDecoder) identity(key, want string) bool {
	if !d.c.Lit(key) {
		return false
	}
	// Names rarely need escaping: try want verbatim between quotes before
	// encoding it. Should want need escapes and still match verbatim, the
	// line is not canonical and the round-trip check refuses it.
	rest := d.c
	if n := len(want); len(rest) >= n+2 && rest[0] == '"' && rest[n+1] == '"' && string(rest[1:n+1]) == want {
		d.c = rest[n+2:]
		return true
	}
	d.scratch = canonjson.AppendString(d.scratch[:0], want)
	if !d.sameTarget(bytes.HasPrefix(rest, d.scratch)) {
		return false
	}
	d.c = rest[len(d.scratch):]
	return true
}

// sameTarget notes a failed identity comparison and passes same through.
func (d *recordDecoder) sameTarget(same bool) bool {
	if !same {
		d.wrongTarget = true
	}
	return same
}

// excluded reads dct_excluded. This build writes one of two values there,
// and a replayed record naming one takes the constant and allocates
// nothing; anything else is read as any other string, to be accepted or
// refused by the same round trip.
func (d *recordDecoder) excluded(v *string) bool {
	switch {
	case d.c.Lit(`"` + ipid.ReasonZero + `"`):
		*v = ipid.ReasonZero
	case d.c.Lit(`"` + ipid.ReasonNonMonotonic + `"`):
		*v = ipid.ReasonNonMonotonic
	default:
		return d.c.String(v)
	}
	return true
}
