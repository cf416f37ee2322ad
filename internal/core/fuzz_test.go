package core

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"ebda/internal/channel"
)

// FuzzParseChain checks the chain parser never panics, never accepts a
// Theorem-1-violating or overlapping design, and that accepted chains
// survive a String round trip and extract turns without error. It is also
// differential: legacyParseChain, the parser as it was when channel.Parse
// read classes with fmt.Sscanf, must accept and reject the same inputs and
// build the same chain. The one allowed disagreement is an input the
// legacy parser accepts through a class token the one-pass class parser
// rejects for a documented strictness (classTightening).
func FuzzParseChain(f *testing.F) {
	for _, seed := range []string{
		"PA[X+ X- Y-] -> PB[Y+]",
		"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]",
		"P[Z1*]",
		"PA[X+ X- Y+ Y-]",
		"PA[X+] -> PB[X+]",
		"->", "PA[", "[]", "PA[bogus]", "PA[X+] -> -> PB[Y+]",
		"PA[Ye+ Yo- X+] -> PB[D4+ D12-]",
		// Inputs the legacy parser misread.
		"PA[X1x+ Y+]", "PA[X+1+] -> PB[Y+]", "PA[D+3+ X+]", "PA[Xe1junk+]",
		"PA[Y2e+ X+]", "PA[X1x*]", "PA[X\t1+ Y+]",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 200 {
			return // keep turn extraction cheap
		}
		var tokens []legacyToken
		old, oldErr := legacyParseChain(s, &tokens)
		chain, err := ParseChain(s)
		tightened := ""
		for _, tok := range tokens {
			if tightened = classTightening(tok); tightened != "" {
				break
			}
		}
		switch {
		case err == nil && oldErr != nil:
			t.Fatalf("ParseChain accepts %q, which the legacy parser rejects: %v", s, oldErr)
		case err == nil && tightened != "":
			t.Fatalf("ParseChain accepts %q despite %s", s, tightened)
		case err != nil && oldErr == nil && tightened == "":
			t.Fatalf("ParseChain rejects %q (%v), which the legacy parser accepts with no class outside the grammar", s, err)
		case err != nil:
			return
		}
		if !chain.Equal(old) || chain.String() != old.String() {
			t.Fatalf("ParseChain(%q) = %s, legacy parser %s", s, chain, old)
		}
		// Accepted chains satisfy the theorems by construction.
		if err := chain.Validate(); err != nil {
			t.Fatalf("accepted chain fails validation: %v", err)
		}
		// Round trip through the canonical rendering.
		back, err := ParseChain(chain.String())
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", chain.String(), err)
		}
		if !back.Equal(chain) {
			t.Fatalf("round trip mismatch: %s != %s", back, chain)
		}
		// Turn extraction must not panic and must stay internally
		// consistent.
		ts := chain.AllTurns()
		n90, nU, nI := ts.Counts()
		if n90+nU+nI != ts.Len() {
			t.Fatalf("turn counts inconsistent: %d+%d+%d != %d", n90, nU, nI, ts.Len())
		}
	})
}

// legacyToken is one class the legacy parser accepted, split where it
// split it: the dimension text and the text it read the VC from.
type legacyToken struct {
	class, dim, vc string
}

// classGrammar is the class grammar of channel.Parse: a dimension, an
// optional parity, an optional decimal VC and the sign.
var classGrammar = regexp.MustCompile(`^(X|Y|Z|T|D[0-9])([eo]?)([0-9]*)([+-])$`)

// classTightening names the documented strictness of the one-pass class
// parser that a legacy-accepted token trips, or "" if it trips none.
// fmt.Sscanf skipped leading spaces, took a sign, and stopped at the first
// byte that was not a digit, so the legacy parser read "X+1+" and "X 1+"
// as X1+, "D+3+" as T1+, and "X1x+", "X1.5+" and "Y2e+" as X1+, X1+ and
// Y2+.
func classTightening(tok legacyToken) string {
	switch {
	case classGrammar.MatchString(tok.class):
		return ""
	case tok.dim[0] == 'D' && (len(tok.dim) != 2 || !isDigit(tok.dim[1])):
		return "a signed or space-padded D-dimension number in " + tok.class
	case tok.vc != "" && !isDigit(tok.vc[0]):
		return "a signed or space-padded VC in " + tok.class
	case tok.vc != "" && strings.TrimLeft(tok.vc, "0123456789") != "":
		return "bytes after the VC in " + tok.class
	}
	panic(fmt.Sprintf("legacy parser accepted %+v outside the grammar for no documented reason", tok))
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

// legacyParseChain is ParseChain over legacyParseClass, kept as
// FuzzParseChain's differential oracle. It appends every class it parses
// to tokens.
func legacyParseChain(s string, tokens *[]legacyToken) (*Chain, error) {
	segments := strings.Split(s, "->")
	parts := make([]*Partition, 0, len(segments))
	for i, seg := range segments {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			return nil, fmt.Errorf("core: empty partition segment in chain %q", s)
		}
		if !strings.Contains(seg, "[") {
			seg = "[" + seg + "]"
		}
		name := ""
		body := strings.TrimSpace(seg)
		if i := strings.IndexByte(body, '['); i >= 0 {
			if !strings.HasSuffix(body, "]") {
				return nil, fmt.Errorf("core: malformed partition %q", seg)
			}
			name = strings.TrimSpace(body[:i])
			body = body[i+1 : len(body)-1]
		}
		var classes []channel.Class
		for _, f := range strings.Fields(body) {
			both := strings.HasSuffix(f, "*")
			if both {
				f = f[:len(f)-1] + "+"
			}
			c, err := legacyParseClass(f, tokens)
			if err != nil {
				return nil, err
			}
			classes = append(classes, c)
			if both {
				classes = append(classes, c.Opposite())
			}
		}
		p, err := NewPartition(name, classes...)
		if err != nil {
			return nil, err
		}
		if p.Name() == "" {
			p = p.WithName(autoName(i))
		}
		parts = append(parts, p)
	}
	return NewChain(parts...)
}

// legacyParseClass is channel.Parse as it was: the sign is the last byte,
// the dimension the shortest prefix legacyParseDim accepts (a single
// letter when one fits), then an optional parity letter, then a VC read
// with fmt.Sscanf.
func legacyParseClass(s string, tokens *[]legacyToken) (channel.Class, error) {
	orig := s
	if len(s) < 2 {
		return channel.Class{}, fmt.Errorf("channel: malformed class %q", orig)
	}
	var sign channel.Sign
	switch s[len(s)-1] {
	case '+':
		sign = channel.Plus
	case '-':
		sign = channel.Minus
	default:
		return channel.Class{}, fmt.Errorf("channel: malformed class %q: missing sign", orig)
	}
	s = s[:len(s)-1]
	var dim channel.Dim
	var dimText, rest string
	found := false
	for i := len(s); i >= 1; i-- {
		if d, err := legacyParseDim(s[:i]); err == nil {
			dim, dimText, rest, found = d, s[:i], s[i:], true
			if i == 1 {
				break
			}
		}
	}
	if d, err := legacyParseDim(s[:1]); err == nil {
		dim, dimText, rest, found = d, s[:1], s[1:], true
	}
	if !found {
		return channel.Class{}, fmt.Errorf("channel: malformed class %q: unknown dimension", orig)
	}
	c := channel.Class{Dim: dim, Sign: sign, VC: 1}
	if rest != "" && (rest[0] == 'e' || rest[0] == 'o') {
		if rest[0] == 'e' {
			c.Par = channel.Even
		} else {
			c.Par = channel.Odd
		}
		if dim == channel.X {
			c.PDim = channel.Y
		} else {
			c.PDim = channel.X
		}
		rest = rest[1:]
	}
	if rest != "" {
		var vc int
		if _, err := fmt.Sscanf(rest, "%d", &vc); err != nil || vc < 1 {
			return channel.Class{}, fmt.Errorf("channel: malformed class %q: bad VC %q", orig, rest)
		}
		c.VC = vc
	}
	if !c.Valid() {
		return channel.Class{}, fmt.Errorf("channel: invalid class %q", orig)
	}
	*tokens = append(*tokens, legacyToken{class: orig, dim: dimText, vc: rest})
	return c, nil
}

// legacyParseDim is channel.ParseDim as it was, reading D-numbers with
// fmt.Sscanf.
func legacyParseDim(s string) (channel.Dim, error) {
	for i, n := range []string{"X", "Y", "Z", "T"} {
		if s == n {
			return channel.Dim(i), nil
		}
	}
	var n int
	if _, err := fmt.Sscanf(s, "D%d", &n); err == nil && n >= 0 {
		return channel.Dim(n), nil
	}
	return 0, fmt.Errorf("channel: unknown dimension %q", s)
}
