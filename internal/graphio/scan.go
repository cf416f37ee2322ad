package graphio

import (
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Scanner reads one JSON document held in memory, strictly and in a
// single pass, without reflection. It knows JSON's grammar but not the
// document's schema: callers walk an object key by key (BeginObject,
// NextKey) and read each value with the typed reader its key calls for,
// so an unknown key is the caller's error and no value is ever skipped.
//
// Strings are unescaped in place: the scanned buffer must belong to the
// caller, and String's result aliases it. Invalid UTF-8 is passed
// through as is rather than replaced by U+FFFD, which changes no
// decision a graph reader makes: such bytes are never digits, spaces or
// key names.
type Scanner struct {
	data []byte
	pos  int
	open bool // the last token read was an object's '{'
}

// NewScanner returns a scanner over data, which String may modify.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

func (s *Scanner) errorf(format string, args ...any) error {
	return perr(0, ErrSyntax, "offset %d: "+format, append([]any{s.pos}, args...)...)
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (s *Scanner) peek() byte {
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (s *Scanner) expect(c byte) error {
	if s.peek() != c {
		return s.errorf("expected %q", c)
	}
	s.pos++
	return nil
}

// BeginObject consumes the '{' that opens an object.
func (s *Scanner) BeginObject() error {
	if err := s.expect('{'); err != nil {
		return err
	}
	s.open = true
	return nil
}

// NextKey consumes the separator before the next key of the current
// object, the key and its ':', and returns the key; ok is false once the
// object's closing '}' has been consumed instead.
func (s *Scanner) NextKey() (key []byte, ok bool, err error) {
	c := s.peek()
	first := s.open
	s.open = false
	switch {
	case c == '}':
		s.pos++
		return nil, false, nil
	case c == ',' && !first:
		s.pos++
	case !first:
		return nil, false, s.errorf("expected ',' or '}'")
	}
	if key, err = s.String(); err != nil {
		return nil, false, err
	}
	if err := s.expect(':'); err != nil {
		return nil, false, err
	}
	return key, true, nil
}

// nextElem consumes the separator before the next element of an array
// whose '[' has been read, or its closing ']' (then more is false).
func (s *Scanner) nextElem(first bool) (more bool, err error) {
	switch c := s.peek(); {
	case c == ']':
		s.pos++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		s.pos++
		return true, nil
	}
	return false, s.errorf("expected ',' or ']'")
}

// Null consumes a null literal if one comes next and reports whether it
// did.
func (s *Scanner) Null() bool {
	if s.peek() == 'n' && len(s.data)-s.pos >= 4 && string(s.data[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}

// End checks that nothing but whitespace follows the document.
func (s *Scanner) End() error {
	if s.peek() != 0 || s.pos < len(s.data) {
		return s.errorf("trailing data after JSON document")
	}
	return nil
}

// Int reads a JSON number that is an integer in int64 range; a
// fraction or exponent is an error, as it is for encoding/json decoding
// into an int.
func (s *Scanner) Int() (int, error) {
	s.peek()
	d, start := s.data, s.pos
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	digits, v := i, 0
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			v = v*10 + int(d[i]-'0') // overflows past 18 digits, reparsed below
		}
	default:
		return 0, s.errorf("expected an integer")
	}
	if i < len(d) {
		switch d[i] {
		case '.', 'e', 'E', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
			return 0, s.errorf("expected an integer")
		}
	}
	s.pos = i
	if i-digits > 18 {
		v, err := strconv.ParseInt(string(d[start:i]), 10, 64)
		if err != nil {
			return 0, s.errorf("integer %s out of range", d[start:i])
		}
		return int(v), nil
	}
	if digits > start {
		v = -v
	}
	return v, nil
}

// Ints reads null (leaving dst as it is) or an array of integers,
// appended to dst.
func (s *Scanner) Ints(dst []int) ([]int, error) {
	if s.Null() {
		return dst, nil
	}
	if err := s.expect('['); err != nil {
		return dst, err
	}
	for first := true; ; first = false {
		more, err := s.nextElem(first)
		if err != nil || !more {
			return dst, err
		}
		v, err := s.Int()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
}

// pair reads one [a, b] array of exactly two integers.
func (s *Scanner) pair() (a, b int, ok bool) {
	if s.expect('[') != nil {
		return 0, 0, false
	}
	var err error
	if a, err = s.Int(); err != nil || s.expect(',') != nil {
		return 0, 0, false
	}
	if b, err = s.Int(); err != nil || s.expect(']') != nil {
		return 0, 0, false
	}
	return a, b, true
}

// String reads a string and returns its unescaped bytes, which alias
// the scanned buffer.
func (s *Scanner) String() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.errorf("expected a string")
	}
	start := s.pos + 1
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i], nil
		case c == '\\':
			return s.unescape(start, i)
		case c < 0x20:
			s.pos = i
			return nil, s.errorf("control character in string")
		}
	}
	s.pos = len(s.data)
	return nil, s.errorf("unterminated string")
}

// unescape finishes a string whose first escape is at r, writing the
// decoded bytes over the escaped ones (never longer) from r on. Escapes
// decode as encoding/json decodes them, including U+FFFD for a lone
// surrogate.
func (s *Scanner) unescape(start, r int) ([]byte, error) {
	d := s.data
	w := r
	for r < len(d) {
		c := d[r]
		switch {
		case c == '"':
			s.pos = r + 1
			return d[start:w], nil
		case c < 0x20:
			s.pos = r
			return nil, s.errorf("control character in string")
		case c != '\\':
			d[w] = c
			w++
			r++
			continue
		}
		if r+1 == len(d) {
			break
		}
		e := d[r+1]
		r += 2
		switch e {
		case '"', '\\', '/':
			d[w] = e
		case 'b':
			d[w] = '\b'
		case 'f':
			d[w] = '\f'
		case 'n':
			d[w] = '\n'
		case 'r':
			d[w] = '\r'
		case 't':
			d[w] = '\t'
		case 'u':
			rr := hex4(d[r:])
			if rr < 0 {
				s.pos = r - 2
				return nil, s.errorf("bad \\u escape")
			}
			r += 4
			if utf16.IsSurrogate(rr) {
				rr1 := rune(-1)
				if len(d)-r >= 6 && d[r] == '\\' && d[r+1] == 'u' {
					rr1 = hex4(d[r+2:])
				}
				if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
					r += 6
					rr = dec
				} else {
					rr = unicode.ReplacementChar
				}
			}
			w += utf8.EncodeRune(d[w:], rr)
			continue
		default:
			s.pos = r - 2
			return nil, s.errorf("bad escape \\%c", e)
		}
		w++
	}
	s.pos = len(d)
	return nil, s.errorf("unterminated string")
}

// hex4 decodes the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
