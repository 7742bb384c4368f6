// Package jsonx reads and writes JSON by hand, byte-compatible with
// encoding/json, for the checkpoint codec: a checkpoint holds every live
// state of a search, tens of megabytes that reflection would decode into
// an intermediate tree and garbage-collect again on every job slice.
//
// Reader accepts a subset of what encoding/json accepts and decodes what it
// accepts to the same values: the same number, string and literal grammar,
// the same string unescaping (invalid UTF-8 and lone surrogates become
// U+FFFD), and null as the zero value. Where encoding/json would merge or
// guess, Reader rejects instead: a key that repeats within an object, and a
// key that matches a known one only case-insensitively. Unknown keys are
// skipped, as encoding/json skips them. AppendString writes a string as
// json.Marshal does, HTML escaping included.
package jsonx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth bounds the nesting of a skipped value (encoding/json allows
// 10000 levels; checkpoints nest fewer than ten).
const maxDepth = 512

// Reader decodes one JSON document from a byte slice, one value at a time.
// Errors are sticky: the first one stops the reader, every later read
// returns a zero value, every loop ends, and Err reports it.
type Reader struct {
	data []byte
	pos  int
	err  error
	buf  []byte // unescaped string scratch
}

// NewReader returns a reader of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an error is already recorded, and stops the
// reader.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.pos = len(r.data)
}

func (r *Reader) syntax(what string) {
	if r.err == nil {
		r.Fail(fmt.Errorf("jsonx: %s at offset %d", what, r.pos))
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.pos }

// End requires that only whitespace is left.
func (r *Reader) End() {
	if r.ws() != 0 || r.pos < len(r.data) {
		r.syntax("data after the value")
	}
}

// ws skips whitespace and returns the next byte without consuming it, or
// 0 at the end.
func (r *Reader) ws() byte {
	if r.pos < len(r.data) && r.data[r.pos] > ' ' {
		return r.data[r.pos]
	}
	if r.pos = skipWS(r.data, r.pos); r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

func (r *Reader) literal(lit string) {
	if !bytes.HasPrefix(r.data[r.pos:], []byte(lit)) {
		r.syntax("invalid literal")
		return
	}
	r.pos += len(lit)
}

// Null consumes a null and reports whether there was one.
func (r *Reader) Null() bool {
	if r.ws() != 'n' {
		return false
	}
	r.literal("null")
	return true
}

// Int reads an integer that fits an int64 (null reads as 0). A number
// with a fraction or an exponent is an error, as encoding/json makes it
// one for an integer field.
func (r *Reader) Int() int64 {
	if r.Null() {
		return 0
	}
	neg := r.pos < len(r.data) && r.data[r.pos] == '-'
	if neg {
		r.pos++
	}
	u := r.digits()
	switch {
	case neg && u <= 1<<63:
		return -int64(u)
	case !neg && u <= math.MaxInt64:
		return int64(u)
	}
	r.syntax("integer out of range")
	return 0
}

// Uint reads an integer that fits a uint64 (null reads as 0).
func (r *Reader) Uint() uint64 {
	if r.Null() {
		return 0
	}
	return r.digits()
}

// digits reads 0 or [1-9][0-9]* into a uint64.
func (r *Reader) digits() uint64 {
	d, i := r.data, r.pos
	if i >= len(d) || d[i] < '0' || d[i] > '9' {
		r.syntax("expected an integer")
		return 0
	}
	var u uint64
	if d[i] == '0' {
		i++
	} else {
		for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
			c := uint64(d[i] - '0')
			if u > (math.MaxUint64-c)/10 {
				r.syntax("integer out of range")
				return 0
			}
			u = u*10 + c
		}
	}
	if i < len(d) && (d[i] == '.' || d[i] == 'e' || d[i] == 'E') {
		r.syntax("expected an integer")
		return 0
	}
	r.pos = i
	return u
}

// Bool reads true or false (null reads as false).
func (r *Reader) Bool() bool {
	switch r.ws() {
	case 't':
		r.literal("true")
		return true
	case 'f':
		r.literal("false")
	case 'n':
		r.literal("null")
	default:
		r.syntax("expected a boolean")
	}
	return false
}

// Str reads a string (null reads as empty) and returns its unescaped
// bytes, which stay valid only until the next read.
func (r *Reader) Str() []byte {
	if r.Null() {
		return nil
	}
	return r.str()
}

// str reads a string that must be there.
func (r *Reader) str() []byte {
	if r.ws() != '"' {
		r.syntax("expected a string")
		return nil
	}
	d := r.data
	start := r.pos + 1
	for i := start; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			r.pos = i + 1
			return d[start:i]
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return r.strSlow(start, i)
		}
	}
	r.syntax("unterminated string")
	return nil
}

// strSlow unescapes a string from i on, where d[start:i] needed nothing,
// exactly as encoding/json does.
func (r *Reader) strSlow(start, i int) []byte {
	d := r.data
	b := append(r.buf[:0], d[start:i]...)
	for i < len(d) {
		switch c := d[i]; {
		case c == '"':
			r.pos = i + 1
			r.buf = b
			return b
		case c == '\\':
			if i+1 >= len(d) {
				r.syntax("unterminated string")
				return nil
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(d[i+2:])
				if rr < 0 {
					r.pos = i
					r.syntax("invalid \\u escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if i+1 < len(d) && d[i] == '\\' && d[i+1] == 'u' {
						rr1 = hex4(d[i+2:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						i += 6
						rr = dec
					} else {
						rr = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				r.pos = i
				r.syntax("invalid escape")
				return nil
			}
			i += 2
		case c < ' ':
			r.pos = i
			r.syntax("control character in string")
			return nil
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
	r.syntax("unterminated string")
	return nil
}

// hex4 decodes the four hex digits of a \u escape, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// Skip reads any value, checking its syntax as encoding/json would, and
// returns its bytes (a slice of the input).
func (r *Reader) Skip() []byte {
	r.ws()
	start := r.pos
	r.skip(0)
	if r.err != nil {
		return nil
	}
	return r.data[start:r.pos]
}

// skip reads one value nested depth deep.
func (r *Reader) skip(depth int) {
	switch c := r.ws(); c {
	case '{', '[':
		if depth == maxDepth {
			r.syntax("value nested too deeply")
			return
		}
		r.pos++
		for n := 0; r.next(n, c+2); n++ { // '}' or ']'
			if c == '{' {
				if r.ws() != '"' {
					r.syntax("expected a string")
					return
				}
				r.pos = r.skipString(r.pos)
				r.colon()
			}
			r.skip(depth + 1)
		}
	case '"':
		r.pos = r.skipString(r.pos)
	case 't':
		r.literal("true")
	case 'f':
		r.literal("false")
	case 'n':
		r.literal("null")
	default:
		r.pos = r.skipNumber(r.pos)
	}
}

func skipWS(d []byte, i int) int {
	for i < len(d) && (d[i] == ' ' || d[i] == '\t' || d[i] == '\n' || d[i] == '\r') {
		i++
	}
	return i
}

func (r *Reader) failAt(i int, what string) {
	r.pos = i
	r.syntax(what)
}

// skipString checks the syntax of the string that starts at i, without
// unescaping it, and returns where it ends.
func (r *Reader) skipString(i int) int {
	d := r.data
	for i++; i < len(d); i++ {
		c := d[i]
		if c == '"' {
			return i + 1
		}
		if c >= ' ' && c != '\\' {
			continue
		}
		switch {
		case c < ' ':
			r.failAt(i, "control character in string")
			return len(d)
		case i+1 < len(d) && strings.IndexByte(`"\/bfnrt`, d[i+1]) >= 0:
			i++
		case i+1 < len(d) && d[i+1] == 'u' && hex4(d[i+2:]) >= 0:
			i += 5
		default:
			r.failAt(i, "invalid escape")
			return len(d)
		}
	}
	r.failAt(i, "unterminated string")
	return len(d)
}

// skipNumber checks -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? from i
// on and returns where it ends.
func (r *Reader) skipNumber(i int) int {
	d := r.data
	digits := func() bool {
		j := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case !digits():
		r.failAt(i, "invalid value")
		return len(d)
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			r.failAt(i, "invalid number")
			return len(d)
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			r.failAt(i, "invalid number")
			return len(d)
		}
	}
	return i
}

func (r *Reader) colon() {
	if r.ws() != ':' {
		r.syntax("expected ':'")
		return
	}
	r.pos++
}

// next moves to element n of an open array or object that closes with
// end: it consumes the comma before it, or the closing byte and returns
// false.
func (r *Reader) next(n int, end byte) bool {
	if r.pos < len(r.data) { // compact input: no whitespace to skip
		switch c := r.data[r.pos]; {
		case c == end:
			r.pos++
			return false
		case n > 0 && c == ',':
			r.pos++
			return true
		case n == 0 && c > ' ':
			return true
		}
	}
	switch c := r.ws(); {
	case r.err != nil:
		return false
	case c == end:
		r.pos++
		return false
	case n == 0:
		return true
	case c == ',':
		r.pos++
		return true
	}
	r.syntax("expected ',' or '" + string(end) + "'")
	return false
}

// Array iterates over the elements of an array: call Next before reading
// each element.
type Array struct {
	r *Reader // nil once done
	n int
	// Null reports that the value was null rather than an array.
	Null bool
}

// Array begins an array value.
func (r *Reader) Array() Array {
	switch r.ws() {
	case '[':
		r.pos++
		return Array{r: r}
	case 'n':
		r.literal("null")
		return Array{Null: true}
	}
	r.syntax("expected an array")
	return Array{}
}

// Next reports whether another element follows.
func (a *Array) Next() bool {
	if a.r == nil {
		return false
	}
	if !a.r.next(a.n, ']') {
		a.r = nil
		return false
	}
	a.n++
	return true
}

// Object iterates over the fields of an object whose known keys are
// given: Next stops at each known key, with Key set to it, before its
// value, which the caller must read. It skips unknown keys' values and
// rejects a repeated key and a key that matches a known one only
// case-insensitively (encoding/json would take it for the known one).
// Null reads as an empty object.
type Object struct {
	r    *Reader // nil once done
	keys []string
	n    int
	seen uint64
	next int // the index of the key expected next: encoders keep the order
	Key  string
}

// Object begins an object value; keys (at most 64) are its known keys.
func (r *Reader) Object(keys []string) Object {
	switch r.ws() {
	case '{':
		r.pos++
		return Object{r: r, keys: keys}
	case 'n':
		r.literal("null")
		return Object{}
	}
	r.syntax("expected an object")
	return Object{}
}

// Next reads up to the next known key's value and reports whether there
// is one.
func (o *Object) Next() bool {
	r := o.r
	for r != nil && r.next(o.n, '}') {
		o.n++
		// Fast path: a known key, written plainly, at or after the one
		// expected next.
		for i := o.next; i < len(o.keys); i++ {
			if k := o.keys[i]; r.plainKey(k) && o.seen&(1<<i) == 0 {
				r.pos += len(k) + 3
				o.seen |= 1 << i
				o.next = i + 1
				o.Key = k
				return true
			}
		}
		key := r.str()
		r.colon()
		if r.err != nil {
			break
		}
		i := o.next
		if i >= len(o.keys) || o.keys[i] != string(key) {
			for i = 0; i < len(o.keys) && o.keys[i] != string(key); i++ {
			}
		}
		if i < len(o.keys) {
			if o.seen&(1<<i) != 0 {
				r.Fail(fmt.Errorf("jsonx: repeated key %q", key))
				o.r = nil
				return false
			}
			o.seen |= 1 << i
			o.next = i + 1
			o.Key = o.keys[i]
			return true
		}
		for _, k := range o.keys {
			if strings.EqualFold(string(key), k) {
				r.Fail(fmt.Errorf("jsonx: key %q stands for %q", key, k))
				o.r = nil
				return false
			}
		}
		r.skip(0)
	}
	o.r = nil
	return false
}

// plainKey reports whether the input continues with "k": (no escapes and
// no whitespace).
func (r *Reader) plainKey(k string) bool {
	d := r.data[r.pos:]
	return len(d) > len(k)+2 && d[0] == '"' && string(d[1:1+len(k)]) == k &&
		d[1+len(k)] == '"' && d[2+len(k)] == ':'
}

// AppendSep appends what comes before element i of a list: the opening
// bracket before the first, a comma before every later one.
func AppendSep(b []byte, i int) []byte {
	if i == 0 {
		return append(b, '[')
	}
	return append(b, ',')
}

// List reads an array into a slice of exactly its length, through the
// scratch slice *buf (nil for none): null reads as nil and [] as an empty
// slice, as encoding/json decodes them.
func List[T any](r *Reader, buf *[]T, elem func() T) []T {
	var s []T
	if buf != nil {
		s = (*buf)[:0]
	}
	a := r.Array()
	for a.Next() {
		s = append(s, elem())
	}
	if buf != nil {
		*buf = s
	}
	if a.Null {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// Unmarshal reads a value with encoding/json, for small bounded values
// where reflection costs nothing that matters.
func (r *Reader) Unmarshal(v any) {
	if raw := r.Skip(); raw != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			r.Fail(err)
		}
	}
}

// AppendString appends s as a JSON string, escaped exactly as json.Marshal
// escapes it: HTML-sensitive <, > and &, control characters, U+2028 and
// U+2029, and invalid UTF-8 (as U+FFFD).
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
