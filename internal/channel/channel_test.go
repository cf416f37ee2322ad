package channel

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDimString(t *testing.T) {
	cases := map[Dim]string{X: "X", Y: "Y", Z: "Z", T: "T", Dim(4): "D4", Dim(9): "D9"}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("Dim(%d).String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestParseDim(t *testing.T) {
	for _, d := range []Dim{X, Y, Z, T, Dim(4), Dim(12)} {
		got, err := ParseDim(d.String())
		if err != nil {
			t.Fatalf("ParseDim(%q): %v", d.String(), err)
		}
		if got != d {
			t.Errorf("ParseDim(%q) = %v, want %v", d.String(), got, d)
		}
	}
	// Nothing may follow the name, and the number takes no sign.
	for _, s := range []string{"Q", "", "D", "Dx", "D+3", "D-1", "D3x", "X1", "D99999999999999999999"} {
		if d, err := ParseDim(s); err == nil {
			t.Errorf("ParseDim(%q) = %v, want an error", s, d)
		}
	}
}

func TestSign(t *testing.T) {
	if Plus.Opposite() != Minus || Minus.Opposite() != Plus {
		t.Error("Opposite broken")
	}
	if Plus.String() != "+" || Minus.String() != "-" {
		t.Error("Sign.String broken")
	}
}

func TestParityMatches(t *testing.T) {
	if !Any.Matches(3) || !Any.Matches(4) {
		t.Error("Any should match everything")
	}
	if !Even.Matches(0) || !Even.Matches(2) || Even.Matches(1) {
		t.Error("Even parity broken")
	}
	if !Odd.Matches(1) || !Odd.Matches(3) || Odd.Matches(2) {
		t.Error("Odd parity broken")
	}
	if Even.Opposite() != Odd || Odd.Opposite() != Even || Any.Opposite() != Any {
		t.Error("Parity.Opposite broken")
	}
}

func TestClassString(t *testing.T) {
	cases := []struct {
		c          Class
		str, plain string
	}{
		{New(X, Plus), "X1+", "X+"},
		{New(Y, Minus), "Y1-", "Y-"},
		{NewVC(X, Plus, 2), "X2+", "X2+"},
		{NewVC(Z, Minus, 4), "Z4-", "Z4-"},
		{NewParity(Y, Plus, X, Even), "Ye+", "Ye+"},
		{NewParity(X, Minus, Y, Odd), "Xo-", "Xo-"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.str {
			t.Errorf("String() = %q, want %q", got, tc.str)
		}
		if got := tc.c.Plain(); got != tc.plain {
			t.Errorf("Plain() = %q, want %q", got, tc.plain)
		}
	}
}

func TestClassShort(t *testing.T) {
	cases := []struct {
		c           Class
		short, bare string
	}{
		{New(X, Plus), "E1", "E"},
		{New(X, Minus), "W1", "W"},
		{NewVC(Y, Plus, 2), "N2", "N2"},
		{NewVC(Y, Minus, 1), "S1", "S"},
		{NewVC(Z, Plus, 4), "U4", "U4"},
		{NewVC(Z, Minus, 3), "D3", "D3"},
		{NewParity(Y, Plus, X, Even), "Ne", "Ne"},
		{NewParity(Y, Minus, X, Odd), "So", "So"},
		{New(T, Plus), "T1+", "T+"},
	}
	for _, tc := range cases {
		if got := tc.c.Short(); got != tc.short {
			t.Errorf("%v Short() = %q, want %q", tc.c, got, tc.short)
		}
		if got := tc.c.ShortPlain(); got != tc.bare {
			t.Errorf("%v ShortPlain() = %q, want %q", tc.c, got, tc.bare)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{"X+", "X1+", "Y2-", "Z4+", "T1-", "Ye+", "Yo-", "Xe+", "Xo2-", "D4+", "D5-"}
	for _, s := range cases {
		c, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		back, err := Parse(c.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)): %v", s, err)
		}
		if back != c {
			t.Errorf("round trip %q: %v != %v", s, back, c)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"", "X", "+", "X0+", "Q1+", "X1", "Xq+", "Ye",
		// Trailing bytes, signs and separators inside the VC once read
		// as a shorter class (X1x+ as X1+, D+3+ as T1+).
		"X1x+", "Y2abc-", "X1.5+", "X+1+", "Xe1junk+", "D+3+", "Y2e+",
		"X 1+", "X\t1+", "X-1+", "X1++",
		// A D-dimension takes one digit: D10+ would be D1 (Y), VC 0.
		"D10+", "D+", "Dx+",
		// VCs that overflow an int.
		"X99999999999999999999+",
	} {
		if c, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %v, want an error", s, c)
		}
	}
}

func TestParseDimensionDigits(t *testing.T) {
	cases := map[string]Class{
		"D4+":   NewVC(Dim(4), Plus, 1),
		"D9-":   NewVC(Dim(9), Minus, 1),
		"D1+":   NewVC(Y, Plus, 1),
		"D12+":  NewVC(Y, Plus, 2),
		"D5e3-": {Dim: Dim(5), Sign: Minus, VC: 3, PDim: X, Par: Even},
		"X007+": NewVC(X, Plus, 7),
	}
	for s, want := range cases {
		got, err := Parse(s)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}

func TestParseList(t *testing.T) {
	cs, err := ParseList("X+ X-, Y2+\tZ1-")
	if err != nil {
		t.Fatal(err)
	}
	want := []Class{New(X, Plus), New(X, Minus), NewVC(Y, Plus, 2), New(Z, Minus)}
	if !reflect.DeepEqual(cs, want) {
		t.Errorf("ParseList = %v, want %v", cs, want)
	}
	if _, err := ParseList("X+ bogus"); err == nil {
		t.Error("ParseList with bogus entry should fail")
	}
}

func TestValid(t *testing.T) {
	if (Class{}).Valid() {
		t.Error("zero Class should be invalid")
	}
	if !New(X, Plus).Valid() {
		t.Error("X+ should be valid")
	}
	if (Class{Dim: X, Sign: Plus, VC: 0}).Valid() {
		t.Error("VC 0 should be invalid")
	}
	// Parity restriction on the channel's own dimension is meaningless.
	if (Class{Dim: X, Sign: Plus, VC: 1, PDim: X, Par: Even}).Valid() {
		t.Error("parity on own dimension should be invalid")
	}
}

func TestOpposite(t *testing.T) {
	c := NewVC(Y, Plus, 3)
	o := c.Opposite()
	if o.Sign != Minus || o.Dim != Y || o.VC != 3 {
		t.Errorf("Opposite = %v", o)
	}
	if o.Opposite() != c {
		t.Error("double Opposite should be identity")
	}
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"X+", "X+", true},
		{"X+", "X-", false},
		{"X+", "Y+", false},
		{"X1+", "X2+", false},
		{"Ye+", "Yo+", false},
		{"Ye+", "Ye+", true},
		{"Ye+", "Y+", true}, // parity class overlaps the unrestricted class
		{"Ye+", "Ye-", false} /* different signs */}
	for _, tc := range cases {
		a, b := MustParse(tc.a), MustParse(tc.b)
		if got := a.Overlaps(b); got != tc.want {
			t.Errorf("Overlaps(%s, %s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := b.Overlaps(a); got != tc.want {
			t.Errorf("Overlaps(%s, %s) = %v, want %v (symmetry)", tc.b, tc.a, got, tc.want)
		}
	}
}

func TestOverlapsOrthogonalParity(t *testing.T) {
	// Same channel family restricted by parities of different dimensions
	// intersects on a quarter of the network.
	a := NewParity(Z, Plus, X, Even)
	b := NewParity(Z, Plus, Y, Odd)
	if !a.Overlaps(b) {
		t.Error("orthogonal parity restrictions should overlap")
	}
}

func TestCompare(t *testing.T) {
	ordered := MustParseList("X1+ X2+ X1- Y1+ Y1- Z1+")
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

// randomClass generates a valid random class for property tests.
func randomClass(r *rand.Rand) Class {
	c := Class{
		Dim:  Dim(r.Intn(4)),
		Sign: Plus,
		VC:   1 + r.Intn(4),
	}
	if r.Intn(2) == 0 {
		c.Sign = Minus
	}
	if r.Intn(3) == 0 {
		c.Par = Parity(1 + r.Intn(2))
		for {
			c.PDim = Dim(r.Intn(4))
			if c.PDim != c.Dim {
				break
			}
		}
	}
	return c
}

func TestQuickStringParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomClass(r)
		if c.Par != Any && !(c.Dim == X && c.PDim == Y || c.Dim != X && c.PDim == X) {
			// Parse can only reconstruct the conventional parity
			// dimensions; skip others.
			return true
		}
		got, err := Parse(c.String())
		return err == nil && got == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickOverlapSymmetricReflexive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomClass(r), randomClass(r)
		if !a.Overlaps(a) || !b.Overlaps(b) {
			return false
		}
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomClass(r), randomClass(r)
		ab, ba := a.Compare(b), b.Compare(a)
		if a == b {
			return ab == 0 && ba == 0
		}
		return ab == -ba && ab != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFormat(t *testing.T) {
	cs := MustParseList("X+ Y2-")
	if got := Format(cs); got != "X1+ Y2-" {
		t.Errorf("Format = %q", got)
	}
	if got := FormatPlain(cs); got != "X+ Y2-" {
		t.Errorf("FormatPlain = %q", got)
	}
}
