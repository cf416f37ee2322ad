package channel

import (
	"regexp"
	"strconv"
	"testing"
)

// classGrammar is Parse's grammar written independently of it: a
// dimension, an optional parity, an optional decimal VC and the sign,
// with nothing before or after.
var classGrammar = regexp.MustCompile(`^(X|Y|Z|T|D[0-9])([eo]?)([0-9]*)([+-])$`)

// FuzzParse checks the parser never panics, that everything it accepts
// matches the grammar in full and decodes to the components the grammar
// names, and that it round-trips through String.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"X+", "X1+", "Y2-", "Ye+", "Yo2-", "Z4+", "T1-", "D5+", "D12+",
		"", "X", "+", "X0+", "Q9-", "Xe", "Yee+", "X99999999999999999+",
		"X1x+", "Y2abc-", "X1.5+", "X+1+", "Xe1junk+", "D+3+", "D10+",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := Parse(s)
		if err != nil {
			return
		}
		if !c.Valid() {
			t.Fatalf("Parse(%q) returned invalid class %+v", s, c)
		}
		m := classGrammar.FindStringSubmatch(s)
		if m == nil {
			t.Fatalf("Parse(%q) = %v, but the input is outside the grammar", s, c)
		}
		dim, err := ParseDim(m[1])
		if err != nil || dim != c.Dim {
			t.Fatalf("Parse(%q) dimension %v, grammar reads %q", s, c.Dim, m[1])
		}
		if par := c.Par.String(); par != m[2] {
			t.Fatalf("Parse(%q) parity %q, grammar reads %q", s, par, m[2])
		}
		vc := 1
		if m[3] != "" {
			if vc, err = strconv.Atoi(m[3]); err != nil {
				t.Fatalf("Parse(%q) accepted VC %q: %v", s, m[3], err)
			}
		}
		if vc != c.VC || c.Sign.String() != m[4] {
			t.Fatalf("Parse(%q) = %v, grammar reads VC %d sign %s", s, c, vc, m[4])
		}
		back, err := Parse(c.String())
		if err != nil {
			t.Fatalf("String(%q) = %q does not re-parse: %v", s, c.String(), err)
		}
		if back != c {
			t.Fatalf("round trip %q: %v != %v", s, back, c)
		}
	})
}
