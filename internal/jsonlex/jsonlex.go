// Package jsonlex reads JSON from a byte slice without reflection, for hot
// decode paths whose Go types are fixed: the caller walks a value with
// Object and Slice and the scalar readers, each of which decodes into its
// destination exactly as encoding/json's Unmarshal would. A syntax error,
// including nesting deeper than MaxDepth, aborts the read. A value of the
// wrong type for its destination, or an integer that does not fit, is
// skipped after a syntax check and leaves the destination as it was; the
// first such mismatch is recorded (see Mismatch) and reading goes on. null
// leaves scalars and objects as they were and sets slices to nil. Bytes
// after the value the caller reads are never looked at.
package jsonlex

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// MaxDepth bounds the nesting of arrays and objects, as in encoding/json.
const MaxDepth = 10000

// Reader reads JSON values from a byte slice.
type Reader struct {
	data     []byte
	pos      int
	depth    int
	mismatch error
}

// NewReader returns a Reader positioned at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Pos returns the offset of the next unread byte. Right after Peek, that is
// where the next value starts; right after a read, where the value ended.
func (r *Reader) Pos() int { return r.pos }

// Peek skips whitespace and returns the first byte of the next value, or 0
// at the end of the input.
func (r *Reader) Peek() byte {
	for ; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// Mismatch returns the first type mismatch recorded since the last call
// and forgets it.
func (r *Reader) Mismatch() error {
	err := r.mismatch
	r.mismatch = nil
	return err
}

// Field returns the name in names that a JSON object key selects, matched
// as encoding/json matches keys to struct fields: an exact match first,
// then the first match under Unicode case folding (bytes.EqualFold). It
// returns "" when no name matches.
func Field(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// Object reads an object, calling field with each key in order. field must
// read the key's value; the key bytes are valid only during the call. null
// is read and ignored, as for a Go struct; any other value is a mismatch.
func (r *Reader) Object(field func(key []byte) error) error {
	if ok, err := r.begins("{", "an object"); !ok {
		return err
	}
	return r.members('}', func() error {
		if r.Peek() != '"' {
			return r.syntaxError("looking for beginning of object key string")
		}
		key, err := r.str()
		if err != nil {
			return err
		}
		if r.Peek(); !r.consume(':') {
			return r.syntaxError("after object key")
		}
		r.Peek()
		return field(key)
	})
}

// begins reports whether the next value begins with a byte of first. If
// not, it reads the value: null as nothing, anything else as a mismatch
// with want.
func (r *Reader) begins(first, want string) (bool, error) {
	c := r.Peek()
	switch {
	case c != 0 && strings.IndexByte(first, c) >= 0:
		return true, nil
	case c == 'n':
		return false, r.literal("null")
	}
	return false, r.typeMismatch(want)
}

// members reads the array or object that opens at r.pos, up to its closing
// byte end, calling each for every member.
func (r *Reader) members(end byte, each func() error) error {
	if r.depth++; r.depth > MaxDepth {
		return fmt.Errorf("jsonlex: exceeded max depth at offset %d", r.pos)
	}
	r.pos++
	if r.Peek() != end {
		for {
			if err := each(); err != nil {
				return err
			}
			if r.Peek() != ',' {
				break
			}
			r.pos++
		}
	}
	if !r.consume(end) {
		return r.syntaxError("after an array element or object member")
	}
	r.depth--
	return nil
}

// Slice reads an array into *s as encoding/json decodes into a slice: null
// sets *s to nil, [] to a non-nil empty slice, and any other array reuses
// *s, so elem decodes element i into whatever *s held at index i — also
// past len(*s) but within its capacity, where an earlier, longer array left
// it. Non-arrays are mismatches and leave *s as it was.
func Slice[T any](r *Reader, s *[]T, elem func(*Reader, *T) error) error {
	if r.Peek() == 'n' {
		if err := r.literal("null"); err != nil {
			return err
		}
		*s = nil
		return nil
	}
	if ok, err := r.begins("[", "an array"); !ok {
		return err
	}
	n := 0
	err := r.members(']', func() error {
		if n == len(*s) {
			if n == cap(*s) {
				*s = slices.Grow(*s, 8)
			}
			*s = (*s)[:n+1]
		}
		n++
		return elem(r, &(*s)[n-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		*s = []T{}
	} else {
		*s = (*s)[:n]
	}
	return nil
}

// Int reads an integer into *dst. A number counts only if
// strconv.ParseInt(…, 10, 64) parses it and T holds it: 1.0, 1e2 and
// out-of-range values are mismatches.
func Int[T ~int | ~int64](r *Reader, dst *T) error {
	if ok, err := r.begins("-0123456789", "an integer"); !ok {
		return err
	}
	start := r.pos
	isInt, err := r.number()
	if err != nil {
		return err
	}
	lit := r.data[start:r.pos]
	v, ok := int64(0), isInt && len(lit) < 19 // at most 18 digits: no overflow
	if ok {
		neg := lit[0] == '-'
		if neg {
			lit = lit[1:]
		}
		for _, d := range lit {
			v = v*10 + int64(d-'0')
		}
		if neg {
			v = -v
		}
	} else if isInt {
		v, err = strconv.ParseInt(string(lit), 10, 64)
		ok = err == nil
	}
	if ok && int64(T(v)) == v {
		*dst = T(v)
	} else {
		r.noteMismatch(start, "an integer")
	}
	return nil
}

// String reads a string into *dst. Strings with escapes or non-ASCII bytes
// are unquoted by encoding/json, so invalid UTF-8 becomes U+FFFD as there.
func (r *Reader) String(dst *string) error {
	if ok, err := r.begins(`"`, "a string"); !ok {
		return err
	}
	s, err := r.str()
	if err == nil {
		*dst = string(s)
	}
	return err
}

// StringIn is String with the string's bytes appended to b instead of
// allocated on their own, so the strings of one document read through b
// share its few backing arrays (a strings.Builder never changes bytes it
// has written). Each string keeps the array it was written to alive.
func (r *Reader) StringIn(dst *string, b *strings.Builder) error {
	if ok, err := r.begins(`"`, "a string"); !ok {
		return err
	}
	s, err := r.str()
	if err != nil {
		return err
	}
	if b.Cap()-b.Len() < len(s) {
		b.Grow(max(len(s), minStringBlock)) // at least doubles the array
	}
	start := b.Len()
	b.Write(s)
	*dst = b.String()[start:]
	return nil
}

// minStringBlock is StringIn's first backing array: room for a few dozen
// short names before the first regrowth.
const minStringBlock = 256

// Skip reads the next value, checking its syntax, and returns its bytes.
func (r *Reader) Skip() ([]byte, error) {
	skip := func() error {
		_, err := r.Skip()
		return err
	}
	c := r.Peek()
	start := r.pos
	var err error
	switch {
	case c == '{':
		err = r.Object(func([]byte) error { return skip() })
	case c == '[':
		err = r.members(']', skip)
	case c == '"':
		_, err = r.str()
	case c == 't':
		err = r.literal("true")
	case c == 'f':
		err = r.literal("false")
	case c == 'n':
		err = r.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err = r.number()
	default:
		err = r.syntaxError("looking for beginning of value")
	}
	return r.data[start:r.pos], err
}

// typeMismatch skips the next value and records that it cannot be decoded
// into want.
func (r *Reader) typeMismatch(want string) error {
	start := r.pos
	_, err := r.Skip()
	if err == nil {
		r.noteMismatch(start, want)
	}
	return err
}

func (r *Reader) noteMismatch(at int, want string) {
	if r.mismatch == nil {
		r.mismatch = fmt.Errorf("jsonlex: the value at offset %d is not %s", at, want)
	}
}

func (r *Reader) syntaxError(context string) error {
	if r.pos >= len(r.data) {
		return errors.New("jsonlex: unexpected end of JSON input")
	}
	return fmt.Errorf("jsonlex: invalid character %q %s at offset %d", r.data[r.pos], context, r.pos)
}

// consume reads the next byte if it is c.
func (r *Reader) consume(c byte) bool {
	if r.pos < len(r.data) && r.data[r.pos] == c {
		r.pos++
		return true
	}
	return false
}

// literal reads the literal lit, which starts at r.pos.
func (r *Reader) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if !r.consume(lit[i]) {
			return r.syntaxError("in literal " + lit)
		}
	}
	return nil
}

// number reads a number, which starts at r.pos, and reports whether it has
// neither a fraction nor an exponent.
func (r *Reader) number() (isInt bool, err error) {
	r.consume('-')
	if !r.consume('0') && !r.digits() {
		return false, r.syntaxError("in numeric literal")
	}
	isInt = true
	if r.consume('.') {
		isInt = false
		if !r.digits() {
			return false, r.syntaxError("after decimal point in numeric literal")
		}
	}
	if r.consume('e') || r.consume('E') {
		isInt = false
		if !r.consume('+') {
			r.consume('-')
		}
		if !r.digits() {
			return false, r.syntaxError("in exponent of numeric literal")
		}
	}
	return isInt, nil
}

// digits reads a run of decimal digits and reports whether it was
// non-empty.
func (r *Reader) digits() bool {
	from := r.pos
	for r.pos < len(r.data) && '0' <= r.data[r.pos] && r.data[r.pos] <= '9' {
		r.pos++
	}
	return r.pos > from
}

// str reads a string, which starts at r.pos, and returns its contents:
// a sub-slice of the input when it is plain ASCII without escapes, else
// the string as encoding/json unquotes it (which also checks the escapes).
func (r *Reader) str() ([]byte, error) {
	start := r.pos
	plain := true
	for r.pos++; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; {
		case c == '"':
			r.pos++
			if plain {
				return r.data[start+1 : r.pos-1], nil
			}
			var s string
			if err := json.Unmarshal(r.data[start:r.pos], &s); err != nil {
				return nil, fmt.Errorf("jsonlex: string at offset %d: %w", start, err)
			}
			return []byte(s), nil
		case c < 0x20:
			return nil, r.syntaxError("in string literal")
		case c == '\\':
			plain = false
			r.pos++ // an escaped quote does not end the string
		case c >= 0x80:
			plain = false
		}
	}
	r.pos = len(r.data) // a trailing backslash stepped past the end
	return nil, r.syntaxError("in string literal")
}
