package canonjson

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// marshal is json.Marshal of v with the one difference AppendString keeps:
// U+0008 and U+000C as \u0008 and \u000c, where encoding/json (since Go
// 1.22) writes \b and \f.
func marshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	var out []byte
	for i := 0; i < len(b); i++ {
		if b[i] != '\\' {
			out = append(out, b[i])
			continue
		}
		i++
		switch b[i] {
		case 'b':
			out = append(out, `\u0008`...)
		case 'f':
			out = append(out, `\u000c`...)
		default:
			out = append(out, '\\', b[i])
		}
	}
	return out
}

// checkString holds AppendString to encoding/json and the Cursor to
// AppendString: what the Cursor reads back from the encoding, followed by
// more of the line, is the value encoding/json reads back, and the rest of
// the line is untouched.
func checkString(tb testing.TB, s string) {
	tb.Helper()
	got := AppendString(nil, s)
	if want := marshal(tb, s); !bytes.Equal(got, want) {
		tb.Fatalf("AppendString(%q) = %s, json.Marshal writes %s", s, got, want)
	}
	var want string
	if err := json.Unmarshal(got, &want); err != nil {
		tb.Fatal(err)
	}
	c := Cursor(append(got, ",x"...))
	var v string
	if !c.String(&v) || v != want || string(c) != ",x" {
		tb.Fatalf("Cursor.String(%s) = %q, rest %q; want %q, rest \",x\"", got, v, c, want)
	}
}

// checkFloat does for AppendFloat what checkString does for AppendString;
// the value read back is f bit for bit.
func checkFloat(tb testing.TB, f float64) {
	tb.Helper()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return // encoding/json refuses them, and so do their callers
	}
	got := AppendFloat(nil, f)
	if want := marshal(tb, f); !bytes.Equal(got, want) {
		tb.Fatalf("AppendFloat(%g) = %s, json.Marshal writes %s", f, got, want)
	}
	c := Cursor(append(got, ",x"...))
	var v float64
	if !c.Float(&v) || math.Float64bits(v) != math.Float64bits(f) || string(c) != ",x" {
		tb.Fatalf("Cursor.Float(%s) = %g, rest %q", got, v, c)
	}
}

// checkInts holds the integer readers to strconv's appenders, which are
// what encoding/json writes: i as an int64 and, where an int holds it, as
// an int; u as a uint64.
func checkInts(tb testing.TB, i int64, u uint64) {
	tb.Helper()
	ib := strconv.AppendInt(nil, i, 10)
	if want := marshal(tb, i); !bytes.Equal(ib, want) {
		tb.Fatalf("AppendInt(%d) = %s, json.Marshal writes %s", i, ib, want)
	}
	c := Cursor(append(ib, ",x"...))
	var v int64
	if !c.Int64(&v) || v != i || string(c) != ",x" {
		tb.Fatalf("Cursor.Int64(%s) = %d, rest %q", ib, v, c)
	}
	c = Cursor(append(ib, ",x"...))
	var n int
	fits := int64(int(i)) == i
	if ok := c.Int(&n); ok != fits || ok && (int64(n) != i || string(c) != ",x") {
		tb.Fatalf("Cursor.Int(%s) = %d, %v, rest %q; an int holds it: %v", ib, n, ok, c, fits)
	}
	ub := strconv.AppendUint(nil, u, 10)
	c = Cursor(append(ub, ",x"...))
	var w uint64
	if !c.Uint(&w) || w != u || string(c) != ",x" {
		tb.Fatalf("Cursor.Uint(%s) = %d, rest %q", ub, w, c)
	}
}

// readAll runs every reader over arbitrary input, for a panic.
func readAll(b []byte) {
	var (
		s string
		f float64
		i int
		j int64
		u uint64
		t bool
	)
	for _, read := range []func(*Cursor) bool{
		func(c *Cursor) bool { return c.String(&s) },
		func(c *Cursor) bool { return c.Float(&f) },
		func(c *Cursor) bool { return c.Int(&i) },
		func(c *Cursor) bool { return c.Int64(&j) },
		func(c *Cursor) bool { return c.Uint(&u) },
		func(c *Cursor) bool { return c.Bool(&t) },
	} {
		c := Cursor(b)
		read(&c)
	}
}

var (
	stringCases = []string{
		"", "plain", `say "no" \ back`, "tab\t nl\n cr\r",
		"ctl\x00\x01\x1f\x7f", "<&>", "high\u2028\u2029", "bad\xff \xc3 \xed\xa0\x80 ok→",
		"ünïcode ✓ 😀", "\ufffd literal",
		"a\bb\fc", // the exception, pinned below as well
	}
	floatCases = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.375, 1.0 / 3.0, 2.0 / 21.0, 0.1,
		1e-6, 9.99e-7, 1e-7, -1e-9, 1e20, 1e21, 3.1e21, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	intCases = []int64{0, 1, -1, 9, 10, math.MaxInt32, math.MaxInt32 + 1, math.MinInt32,
		math.MinInt32 - 1, math.MaxInt64, math.MinInt64}
)

func TestAppendAndCursorMatchEncodingJSON(t *testing.T) {
	for _, s := range stringCases {
		checkString(t, s)
	}
	for _, f := range floatCases {
		checkFloat(t, f)
	}
	for _, i := range intCases {
		checkInts(t, i, uint64(i))
	}
	checkInts(t, 0, math.MaxUint64)
}

// TestControlEscapeException pins the one place AppendString and
// encoding/json part: U+0008 and U+000C.
func TestControlEscapeException(t *testing.T) {
	const s = "a\bb\fc"
	if got, want := string(AppendString(nil, s)), `"a\u0008b\u000cc"`; got != want {
		t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
	}
	if got, _ := json.Marshal(s); string(got) != `"a\bb\fc"` {
		t.Errorf("json.Marshal(%q) = %s; the exception has moved", s, got)
	}
}

// TestCursorRefusals: input no value could have been appended as is
// refused, and an int beyond an int's range is refused on a 32-bit platform
// rather than wrapped.
func TestCursorRefusals(t *testing.T) {
	var (
		s string
		f float64
		i int
		j int64
		u uint64
		b bool
	)
	for _, tc := range []struct {
		in   string
		read func(*Cursor) bool
	}{
		{``, func(c *Cursor) bool { return c.Uint(&u) }},
		{`x`, func(c *Cursor) bool { return c.Uint(&u) }},
		{`18446744073709551616`, func(c *Cursor) bool { return c.Uint(&u) }},
		{`-`, func(c *Cursor) bool { return c.Int64(&j) }},
		{`9223372036854775808`, func(c *Cursor) bool { return c.Int64(&j) }},
		{`-9223372036854775809`, func(c *Cursor) bool { return c.Int64(&j) }},
		{`9223372036854775808`, func(c *Cursor) bool { return c.Int(&i) }},
		{`tru`, func(c *Cursor) bool { return c.Bool(&b) }},
		{`TRUE`, func(c *Cursor) bool { return c.Bool(&b) }},
		{``, func(c *Cursor) bool { return c.Float(&f) }},
		{`1e400`, func(c *Cursor) bool { return c.Float(&f) }},
		{`--1`, func(c *Cursor) bool { return c.Float(&f) }},
		{`x`, func(c *Cursor) bool { return c.String(&s) }},
		{`"open`, func(c *Cursor) bool { return c.String(&s) }},
		{`"open\"`, func(c *Cursor) bool { return c.String(&s) }},
		{`"\`, func(c *Cursor) bool { return c.String(&s) }},
		{`"\b"`, func(c *Cursor) bool { return c.String(&s) }},
		{`"\/"`, func(c *Cursor) bool { return c.String(&s) }},
		{`"\u00"`, func(c *Cursor) bool { return c.String(&s) }},
		{`"\u00zz"`, func(c *Cursor) bool { return c.String(&s) }},
	} {
		c := Cursor(tc.in)
		if tc.read(&c) {
			t.Errorf("read %q", tc.in)
		}
	}

	c := Cursor(strconv.FormatInt(math.MaxInt32+1, 10))
	if ok := c.Int(&i); ok != (strconv.IntSize == 64) {
		t.Errorf("Cursor.Int(MaxInt32+1) = %v on a %d-bit int", ok, strconv.IntSize)
	}
	c = Cursor(strconv.FormatInt(math.MinInt32-1, 10))
	if ok := c.Int(&i); ok != (strconv.IntSize == 64) {
		t.Errorf("Cursor.Int(MinInt32-1) = %v on a %d-bit int", ok, strconv.IntSize)
	}
}

// TestCursorAllocs: only the strings String returns allocate, one each.
func TestCursorAllocs(t *testing.T) {
	line := []byte(`18446744073709551615,-42,true,0.375,"plain","esc\"aped \u2028"`)
	var (
		u    uint64
		j    int64
		b    bool
		f    float64
		s, e string
	)
	allocs := testing.AllocsPerRun(100, func() {
		c := Cursor(line)
		if !(c.Uint(&u) && c.Lit(",") && c.Int64(&j) && c.Lit(",") && c.Bool(&b) && c.Lit(",") &&
			c.Float(&f) && c.Lit(",") && c.String(&s) && c.Lit(",") && c.String(&e) && len(c) == 0) {
			t.Fatalf("line refused at %q", c)
		}
	})
	if allocs != 2 {
		t.Errorf("reading the line makes %.1f allocations, want 2 (its strings)", allocs)
	}
	if e != "esc\"aped \u2028" {
		t.Errorf("escaped string read as %q", e)
	}
}

// FuzzCanonJSON: for any string, float64 and integers, the Append
// functions write what encoding/json writes (but for the exception above)
// and the Cursor reads back exactly the value and the bytes written; on
// the same bytes as raw input, no reader panics.
func FuzzCanonJSON(f *testing.F) {
	for i, s := range stringCases {
		f.Add(s, floatCases[i%len(floatCases)], intCases[i%len(intCases)], uint64(i))
	}
	f.Add(`"A\/\b"`, 1e21, int64(math.MinInt64), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, s string, fl float64, i int64, u uint64) {
		checkString(t, s)
		checkFloat(t, fl)
		checkInts(t, i, u)
		readAll([]byte(s))
	})
}
