// Package channel defines the abstract channel model the EbDa theory is
// stated in: a channel class names one unidirectional (virtual) channel
// family of an n-dimensional network, such as X1+ (the first virtual channel
// in the positive X direction) or Ye* (the Y channels located in even
// columns).
//
// A class is identified by four components:
//
//   - a dimension (X, Y, Z, T, ... for arbitrarily many dimensions),
//   - a sign (positive or negative direction along that dimension),
//   - a virtual-channel number (1-based; 1 when the dimension has a single
//     channel), and
//   - an optional coordinate-parity restriction, used by designs such as
//     Odd-Even (Y channels split by column parity) and the Hamiltonian-path
//     strategy (X channels split by row parity).
//
// Classes are pure values; they compare with == and are usable as map keys.
package channel

import (
	"fmt"
	"strconv"
	"strings"
)

// Dim identifies a network dimension. The first four dimensions are
// conventionally named X, Y, Z and T (as in the paper); higher dimensions
// print as D4, D5, ...
type Dim int

// Conventional dimension names.
const (
	X Dim = iota
	Y
	Z
	T
)

var dimNames = [...]string{"X", "Y", "Z", "T"}

// String returns the conventional name of the dimension.
func (d Dim) String() string {
	if d >= 0 && int(d) < len(dimNames) {
		return dimNames[d]
	}
	return "D" + strconv.Itoa(int(d))
}

// appendTo appends the dimension's String form to b.
func (d Dim) appendTo(b []byte) []byte {
	if d >= 0 && int(d) < len(dimNames) {
		return append(b, dimNames[d]...)
	}
	return strconv.AppendInt(append(b, 'D'), int64(d), 10)
}

// ParseDim parses a dimension name as produced by Dim.String: X, Y, Z, T,
// or D followed by a decimal number (D4, D12; D0-D3 name X-T). Nothing
// may follow the name.
func ParseDim(s string) (Dim, error) {
	for i, n := range dimNames {
		if s == n {
			return Dim(i), nil
		}
	}
	if len(s) > 1 && s[0] == 'D' && digitRun(s[1:]) == len(s)-1 {
		if n, err := strconv.Atoi(s[1:]); err == nil {
			return Dim(n), nil
		}
	}
	return 0, fmt.Errorf("channel: unknown dimension %q", s)
}

// Sign is the direction along a dimension: positive or negative.
type Sign int8

// The two directions of a dimension.
const (
	Plus  Sign = +1
	Minus Sign = -1
)

// String returns "+" or "-".
func (s Sign) String() string {
	if s == Plus {
		return "+"
	}
	return "-"
}

// Opposite returns the other direction.
func (s Sign) Opposite() Sign { return -s }

// Parity restricts a class to channels whose position has a given coordinate
// parity in some dimension (see Class.PDim). Any means unrestricted.
type Parity int8

// Parity values.
const (
	Any Parity = iota
	Even
	Odd
)

// String returns "", "e" or "o" — the subscript notation used in the paper
// (Ye, Yo).
func (p Parity) String() string {
	switch p {
	case Even:
		return "e"
	case Odd:
		return "o"
	default:
		return ""
	}
}

// Matches reports whether a coordinate value belongs to the parity class.
func (p Parity) Matches(coord int) bool {
	switch p {
	case Even:
		return coord%2 == 0
	case Odd:
		return coord%2 != 0
	default:
		return true
	}
}

// Opposite returns the complementary parity; Any maps to Any.
func (p Parity) Opposite() Parity {
	switch p {
	case Even:
		return Odd
	case Odd:
		return Even
	default:
		return Any
	}
}

// Class identifies one abstract channel family.
//
// The zero value is not a valid class (its Sign is 0); construct classes
// with New, NewVC or NewParity.
type Class struct {
	// Dim is the dimension the channel moves along.
	Dim Dim
	// Sign is the direction of movement along Dim.
	Sign Sign
	// VC is the 1-based virtual-channel number. Networks without virtual
	// channels use VC 1 throughout.
	VC int
	// PDim is the dimension whose coordinate the parity restriction
	// applies to. Only meaningful when Par != Any. In the Odd-Even model
	// the Y channels are split by the X (column) coordinate: PDim == X.
	PDim Dim
	// Par restricts the class to positions with the given coordinate
	// parity in PDim; Any means no restriction.
	Par Parity
}

// New returns the class for direction d·s with a single (implicit) virtual
// channel.
func New(d Dim, s Sign) Class { return Class{Dim: d, Sign: s, VC: 1} }

// NewVC returns the class for virtual channel vc (1-based) in direction d·s.
func NewVC(d Dim, s Sign, vc int) Class { return Class{Dim: d, Sign: s, VC: vc} }

// NewParity returns the class for direction d·s restricted to positions
// whose coordinate in dimension pdim has parity par.
func NewParity(d Dim, s Sign, pdim Dim, par Parity) Class {
	return Class{Dim: d, Sign: s, VC: 1, PDim: pdim, Par: par}
}

// Valid reports whether the class is well formed: a recognised sign, a
// positive VC number, and a parity restriction (if any) on a different
// dimension than the channel's own.
func (c Class) Valid() bool {
	if c.Sign != Plus && c.Sign != Minus {
		return false
	}
	if c.VC < 1 {
		return false
	}
	if c.Par != Any && c.PDim == c.Dim {
		// A channel moves along its own dimension, so its coordinate
		// there is not fixed; parity classes must reference an
		// orthogonal dimension.
		return false
	}
	return true
}

// Opposite returns the class with the direction reversed and all other
// components unchanged.
func (c Class) Opposite() Class {
	c.Sign = c.Sign.Opposite()
	return c
}

// WithVC returns a copy of the class with the virtual-channel number
// replaced.
func (c Class) WithVC(vc int) Class {
	c.VC = vc
	return c
}

// SameDim reports whether two classes move along the same dimension.
func (c Class) SameDim(o Class) bool { return c.Dim == o.Dim }

// Overlaps reports whether two classes can denote a common concrete channel:
// same dimension, direction and VC, with compatible parity restrictions.
// Classes with parity restrictions in different dimensions are conservatively
// treated as overlapping (they intersect on half the network).
func (c Class) Overlaps(o Class) bool {
	if c.Dim != o.Dim || c.Sign != o.Sign || c.VC != o.VC {
		return false
	}
	if c.Par == Any || o.Par == Any {
		return true
	}
	if c.PDim != o.PDim {
		return true // orthogonal parity restrictions intersect
	}
	return c.Par == o.Par
}

// String renders the class in the paper's notation: dimension, VC number,
// optional parity subscript, sign — e.g. "X1+", "Y2-", "Ye+" (parity classes
// omit the VC number when it is 1, matching the paper's Ye*/Yo* notation).
func (c Class) String() string {
	var buf [16]byte
	return string(c.AppendTo(buf[:0]))
}

// AppendTo appends the class's String form to b and returns the extended
// buffer, so callers rendering many classes share one buffer.
func (c Class) AppendTo(b []byte) []byte {
	b = c.Dim.appendTo(b)
	b = append(b, c.Par.String()...)
	if c.Par == Any || c.VC != 1 {
		b = strconv.AppendInt(b, int64(c.VC), 10)
	}
	return append(b, c.Sign.String()...)
}

// Plain renders the class without the VC number when it is 1: "X+", "Y2-".
// This matches the paper's notation for networks without virtual channels.
func (c Class) Plain() string {
	if c.VC == 1 {
		return c.Dim.String() + c.Par.String() + c.Sign.String()
	}
	return c.String()
}

// shortLetters maps (dim, sign) to the compass letters used in the paper's
// figures: E/W for X+/X-, N/S for Y+/Y-, U/D for Z+/Z-.
var shortLetters = map[Dim][2]string{
	X: {"E", "W"},
	Y: {"N", "S"},
	Z: {"U", "D"},
}

// Short renders the class in the compass notation of the paper's Figure 8:
// E1, W2, N1, S2, U3, D4. Dimensions beyond Z fall back to String notation.
// Parity classes append the parity subscript (Ne, So) before the VC number,
// matching Table 4.
func (c Class) Short() string {
	letters, ok := shortLetters[c.Dim]
	if !ok {
		return c.String()
	}
	letter := letters[0]
	if c.Sign == Minus {
		letter = letters[1]
	}
	if c.Par != Any && c.VC == 1 {
		return letter + c.Par.String()
	}
	return letter + c.Par.String() + strconv.Itoa(c.VC)
}

// ShortPlain is Short without the VC number when it is 1: E, W2, Ne, So.
func (c Class) ShortPlain() string {
	if c.VC == 1 {
		letters, ok := shortLetters[c.Dim]
		if !ok {
			return c.Plain()
		}
		letter := letters[0]
		if c.Sign == Minus {
			letter = letters[1]
		}
		return letter + c.Par.String()
	}
	return c.Short()
}

// Compare orders classes lexicographically by (Dim, Sign with + first, VC,
// PDim, Par). It returns -1, 0 or +1.
func (c Class) Compare(o Class) int {
	switch {
	case c.Dim != o.Dim:
		if c.Dim < o.Dim {
			return -1
		}
		return 1
	case c.Sign != o.Sign:
		if c.Sign == Plus {
			return -1
		}
		return 1
	case c.VC != o.VC:
		if c.VC < o.VC {
			return -1
		}
		return 1
	case c.PDim != o.PDim:
		if c.PDim < o.PDim {
			return -1
		}
		return 1
	case c.Par != o.Par:
		if c.Par < o.Par {
			return -1
		}
		return 1
	}
	return 0
}

// Parse parses a class from the paper's notation as produced by String or
// Plain: "X+", "X1+", "Y2-", "Ye+", "Yo2-". Parity classes use PDim = X for
// Y/Z/... channels and PDim = Y for X channels (column parity for non-X
// channels, row parity for X channels), which covers the paper's Odd-Even
// and Hamiltonian-path usage.
//
// The grammar, read in one pass with nothing left over:
//
//	class  = dim [ "e" | "o" ] [ vc ] sign
//	dim    = "X" | "Y" | "Z" | "T" | "D" digit
//	vc     = digit { digit }    (at least 1, and fits an int)
//	sign   = "+" | "-"
//
// A D-dimension takes exactly one digit, so D4-D9 name the fifth to tenth
// dimensions (D0-D3 alias X-T) and "D12+" reads as dimension D1 (Y), VC 2.
func Parse(s string) (Class, error) {
	var c Class
	i := 0
	switch {
	case s == "":
		return Class{}, fmt.Errorf("channel: malformed class %q", s)
	case s[0] == 'D':
		if len(s) < 2 || s[1] < '0' || s[1] > '9' {
			return Class{}, fmt.Errorf("channel: malformed class %q: unknown dimension", s)
		}
		c.Dim, i = Dim(s[1]-'0'), 2
	default:
		d := strings.IndexByte("XYZT", s[0])
		if d < 0 {
			return Class{}, fmt.Errorf("channel: malformed class %q: unknown dimension", s)
		}
		c.Dim, i = Dim(d), 1
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'o') {
		c.Par = Even
		if s[i] == 'o' {
			c.Par = Odd
		}
		if c.Dim != X {
			c.PDim = X
		} else {
			c.PDim = Y
		}
		i++
	}
	c.VC = 1
	if j := i + digitRun(s[i:]); j > i {
		vc, err := strconv.Atoi(s[i:j])
		if err != nil || vc < 1 {
			return Class{}, fmt.Errorf("channel: malformed class %q: bad VC %q", s, s[i:j])
		}
		c.VC, i = vc, j
	}
	switch {
	case i == len(s):
		return Class{}, fmt.Errorf("channel: malformed class %q: missing sign", s)
	case i < len(s)-1:
		return Class{}, fmt.Errorf("channel: malformed class %q: unexpected %q", s, s[i:])
	case s[i] == '+':
		c.Sign = Plus
	case s[i] == '-':
		c.Sign = Minus
	default:
		return Class{}, fmt.Errorf("channel: malformed class %q: missing sign", s)
	}
	if !c.Valid() {
		return Class{}, fmt.Errorf("channel: invalid class %q", s)
	}
	return c, nil
}

// digitRun returns the length of the run of decimal digits leading s.
func digitRun(s string) int {
	n := 0
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		n++
	}
	return n
}

// MustParse is Parse that panics on error; intended for constants in tests
// and examples.
func MustParse(s string) Class {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// ParseList parses a whitespace- or comma-separated list of classes.
func ParseList(s string) ([]Class, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == ',' || r == '\t' || r == '\n'
	})
	out := make([]Class, 0, len(fields))
	for _, f := range fields {
		c, err := Parse(f)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// MustParseList is ParseList that panics on error.
func MustParseList(s string) []Class {
	cs, err := ParseList(s)
	if err != nil {
		panic(err)
	}
	return cs
}

// Format renders a list of classes separated by spaces, in String notation.
func Format(cs []Class) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ")
}

// FormatPlain renders a list of classes separated by spaces, in Plain
// notation.
func FormatPlain(cs []Class) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.Plain()
	}
	return strings.Join(parts, " ")
}
