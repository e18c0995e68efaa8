// Package canonjson is the one JSON form this module writes and reads by
// hand: what encoding/json.Marshal writes, with its default HTML escaping,
// and nothing else. The campaign's JSONL records, the dist wire's header
// lines and the run trace are all written with its Append functions, and
// the two that are read back are read with its Cursor.
//
// There is one known difference from encoding/json: since Go 1.22 it writes
// U+0008 and U+000C as \b and \f, and AppendString writes \u0008 and \u000c,
// as encoding/json did before. The campaign's records have always been
// written that way, and changing their bytes would re-fingerprint every
// checkpoint.
package canonjson

import (
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json writes a float64: the shortest
// representation, in 'f' form except for magnitudes below 1e-6 or at least
// 1e21, which use 'e' form with a trimmed two-digit negative exponent. f
// must be finite; encoding/json refuses NaN and the infinities.
func AppendFloat(dst []byte, f float64) []byte {
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

// AppendString appends s as a JSON string with encoding/json's default
// HTML escaping: quotes, backslashes and control characters are escaped, as
// are '<', '>', '&', U+2028 and U+2029; invalid UTF-8 becomes the escape
// sequence \ufffd. Control characters other than \n, \r and \t are written
// as \u00XX, U+0008 and U+000C included (see the package comment).
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe(b) {
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

// safe reports whether b may appear literally in a JSON string under
// encoding/json's default (HTML-escaping) rules.
func safe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// Cursor is the unread rest of one line. Its methods each consume one token
// off the front and report whether they could; after a false the cursor's
// position is unspecified.
//
// A Cursor reads what the Append functions and strconv's integer appenders
// write, consuming exactly those bytes, back to the value written (invalid
// UTF-8 in a string reads back as U+FFFD per byte, as encoding/json reads
// it). It also takes spellings they never write, such as a leading zero,
// any \uXXXX escape or a literal control byte: a caller that accepts only
// the canonical form re-appends what it read and compares the bytes, and
// that round trip is the authority. A Cursor allocates nothing but the
// strings String returns.
type Cursor []byte

// Lit consumes s if the input continues with it.
func (c *Cursor) Lit(s string) bool {
	if len(*c) < len(s) || string((*c)[:len(s)]) != s {
		return false
	}
	*c = (*c)[len(s):]
	return true
}

// Uint consumes a run of decimal digits, refusing an empty run and a value
// that overflows 64 bits.
func (c *Cursor) Uint(v *uint64) bool {
	b := *c
	var n uint64
	i := 0
	const cut = math.MaxUint64 / 10 // n*10 + d fits while n stays below cut
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		d := uint64(b[i] - '0')
		if n > cut || n == cut && d > math.MaxUint64%10 {
			return false
		}
		n = n*10 + d
	}
	*v, *c = n, b[i:]
	return i > 0
}

// Int64 consumes an optionally negative integer, refusing one an int64
// cannot hold.
func (c *Cursor) Int64(v *int64) bool {
	neg := c.Lit("-")
	var u uint64
	switch {
	case !c.Uint(&u):
		return false
	case neg && u <= 1<<63:
		*v = -int64(u)
	case !neg && u <= math.MaxInt64:
		*v = int64(u)
	default:
		return false
	}
	return true
}

// Int is Int64 for an int, refusing a value an int cannot hold (beyond
// math.MaxInt32 on a 32-bit platform) rather than wrapping it.
func (c *Cursor) Int(v *int) bool {
	var n int64
	if !c.Int64(&n) || n < math.MinInt || n > math.MaxInt {
		return false
	}
	*v = int(n)
	return true
}

// Bool consumes true or false.
func (c *Cursor) Bool(v *bool) bool {
	*v = c.Lit("true")
	return *v || c.Lit("false")
}

// Float consumes a number token and parses it with strconv, the inverse of
// the strconv.AppendFloat behind AppendFloat.
func (c *Cursor) Float(v *float64) bool {
	b := *c
	i := 0
	for ; i < len(b); i++ {
		if ch := b[i]; ch-'0' > 9 && ch != '.' && ch != '-' && ch != '+' && ch != 'e' {
			break
		}
	}
	tok := b[:i]
	*c = b[i:]
	if len(tok) == 1 && tok[0] == '0' {
		// Most rates of most records.
		*v = 0
		return true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*v = f
	return err == nil
}

// String consumes a JSON string and allocates its value. It decodes the
// escapes AppendString writes — \", \\, \n, \r, \t and \uXXXX — and refuses
// the others.
func (c *Cursor) String(v *string) bool {
	b := *c
	if len(b) == 0 || b[0] != '"' {
		return false
	}
	end, escaped := 1, false
	for ; end < len(b) && b[end] != '"'; end++ {
		if b[end] == '\\' {
			escaped = true
			end++ // the escaped byte, which may be a quote
		}
	}
	if end >= len(b) {
		return false
	}
	body := b[1:end]
	*c = b[end+1:]
	if !escaped {
		*v = string(body)
		return true
	}
	// Every escape is at least as long as what it stands for, so body's
	// length bounds the value's: one allocation, which String hands over.
	var s strings.Builder
	s.Grow(len(body))
	for i := 0; i < len(body); i++ {
		if body[i] != '\\' {
			s.WriteByte(body[i])
			continue
		}
		i++ // the scan above never ends body on a lone backslash
		switch body[i] {
		case '"', '\\':
			s.WriteByte(body[i])
		case 'n':
			s.WriteByte('\n')
		case 'r':
			s.WriteByte('\r')
		case 't':
			s.WriteByte('\t')
		case 'u':
			if i+4 >= len(body) {
				return false
			}
			r, err := strconv.ParseUint(string(body[i+1:i+5]), 16, 16)
			if err != nil {
				return false
			}
			s.WriteRune(rune(r))
			i += 4
		default:
			return false
		}
	}
	*v = s.String()
	return true
}
