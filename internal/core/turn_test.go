package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ebda/internal/channel"
)

// randomTurnSet draws a turn set over a small class pool, mixing explicit
// turns with declare-only classes and parity-restricted classes.
func randomTurnSet(r *rand.Rand) *TurnSet {
	pool := channel.MustParseList("X1+ X1- X2+ Y1+ Y1- Y2-")
	pool = append(pool,
		channel.NewParity(channel.Y, channel.Plus, channel.X, channel.Odd),
		channel.NewParity(channel.Y, channel.Plus, channel.X, channel.Even),
	)
	ts := NewTurnSet()
	for _, c := range pool {
		if r.Intn(2) == 0 {
			ts.Declare(c)
		}
	}
	for i := 0; i < 12; i++ {
		from := pool[r.Intn(len(pool))]
		to := pool[r.Intn(len(pool))]
		if from != to {
			ts.Add(from, to, Theorem(1+r.Intn(3)))
		}
	}
	return ts
}

func TestMatrixMatchesAllows(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		ts := randomTurnSet(r)
		m := ts.Matrix()
		classes := m.Classes()
		if len(classes) != m.NumClasses() {
			t.Fatalf("NumClasses = %d, want %d", m.NumClasses(), len(classes))
		}
		for i, from := range classes {
			if idx, ok := m.Index(from); !ok || idx != i {
				t.Fatalf("Index(%s) = %d,%v, want %d", from, idx, ok, i)
			}
			for j, to := range classes {
				if m.Allows(i, j) != ts.Allows(from, to) {
					t.Fatalf("trial %d: matrix.Allows(%s, %s) = %v, turn set says %v",
						trial, from, to, m.Allows(i, j), ts.Allows(from, to))
				}
			}
		}
	}
}

func TestMatrixContinuationAndUnknown(t *testing.T) {
	ts := NewTurnSet()
	e := channel.New(channel.X, channel.Plus)
	n := channel.New(channel.Y, channel.Plus)
	ts.Declare(e)
	ts.Add(e, n, ByTheorem1)
	m := ts.Matrix()
	ei, _ := m.Index(e)
	ni, _ := m.Index(n)
	if !m.Allows(ei, ei) {
		t.Error("declared class must allow same-class continuation")
	}
	if !m.Allows(ei, ni) || m.Allows(ni, ei) {
		t.Error("explicit turn direction lost")
	}
	if _, ok := m.Index(channel.New(channel.X, channel.Minus)); ok {
		t.Error("unknown class must not resolve")
	}
	// AllowsAny covers the pairwise any-match used by edge construction.
	if !m.AllowsAny([]int32{int32(ei)}, []int32{int32(ni)}) {
		t.Error("AllowsAny must see the explicit turn")
	}
	if m.AllowsAny([]int32{int32(ni)}, []int32{int32(ei)}) {
		t.Error("AllowsAny must not invent turns")
	}
	if m.AllowsAny(nil, []int32{int32(ni)}) || m.AllowsAny([]int32{int32(ei)}, nil) {
		t.Error("empty sides must yield false")
	}
	// The matrix is a snapshot: later Adds are invisible.
	ts.Add(n, e, ByTheorem1)
	if m.Allows(ni, ei) {
		t.Error("matrix must be a snapshot, not a live view")
	}
}

// refTurnSet is the map-based turn set the dense TurnSet replaced, kept as
// a reference model: a map from (from, to) to theorem label and a map of
// declared classes, with every query answered the obvious way.
type refTurnSet struct {
	turns    map[[2]channel.Class]Theorem
	declared map[channel.Class]bool
}

func newRefTurnSet() *refTurnSet {
	return &refTurnSet{turns: map[[2]channel.Class]Theorem{}, declared: map[channel.Class]bool{}}
}

func (r *refTurnSet) add(from, to channel.Class, src Theorem) {
	r.declared[from], r.declared[to] = true, true
	key := [2]channel.Class{from, to}
	if old, ok := r.turns[key]; ok && old <= src {
		return
	}
	r.turns[key] = src
}

func (r *refTurnSet) remove(from, to channel.Class) bool {
	key := [2]channel.Class{from, to}
	_, ok := r.turns[key]
	delete(r.turns, key)
	return ok
}

func (r *refTurnSet) clone() *refTurnSet {
	c := newRefTurnSet()
	for k, v := range r.turns {
		c.turns[k] = v
	}
	for k := range r.declared {
		c.declared[k] = true
	}
	return c
}

func (r *refTurnSet) union(o *refTurnSet) *refTurnSet {
	u := newRefTurnSet()
	for _, x := range []*refTurnSet{r, o} {
		for k, v := range x.turns {
			u.add(k[0], k[1], v)
		}
		for c := range x.declared {
			u.declared[c] = true
		}
	}
	return u
}

func (r *refTurnSet) allows(from, to channel.Class) bool {
	if from == to {
		return r.declared[from]
	}
	_, ok := r.turns[[2]channel.Class{from, to}]
	return ok
}

func (r *refTurnSet) sortedTurns() []Turn {
	out := []Turn{}
	for k, v := range r.turns {
		out = append(out, Turn{From: k[0], To: k[1], Source: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].From.Compare(out[j].From); c != 0 {
			return c < 0
		}
		return out[i].To.Compare(out[j].To) < 0
	})
	return out
}

func (r *refTurnSet) classes() []channel.Class {
	out := []channel.Class{}
	for c := range r.declared {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func (r *refTurnSet) subset(o *refTurnSet) bool {
	for k := range r.turns {
		if _, ok := o.turns[k]; !ok {
			return false
		}
	}
	return true
}

func (r *refTurnSet) fingerprint() (uint64, uint64) {
	var h1, h2 uint64
	for c := range r.declared {
		e := classCode(c)
		h1 += mix64(e ^ 0x9e3779b97f4a7c15)
		h2 += mix64(e ^ 0xc2b2ae3d27d4eb4f)
	}
	for k := range r.turns {
		e := classCode(k[0])*0x100000001b3 ^ classCode(k[1])
		h1 += mix64(e ^ 0xd6e8feb86659fd93)
		h2 += mix64(e ^ 0xa0761d6478bd642f)
	}
	return h1, h2
}

// refPool is the class pool the model test draws from: several dimensions,
// VCs and parities, so insertions land before, between and after the
// classes already interned, and a row spans more than one 64-bit word once
// enough VCs are declared.
func refPool() []channel.Class {
	var pool []channel.Class
	for _, d := range []channel.Dim{channel.X, channel.Y, channel.Z, channel.Dim(5)} {
		for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
			for vc := 1; vc <= 9; vc++ {
				pool = append(pool, channel.NewVC(d, sign, vc))
			}
			pdim := channel.X
			if d == channel.X {
				pdim = channel.Y
			}
			pool = append(pool, channel.NewParity(d, sign, pdim, channel.Even), channel.NewParity(d, sign, pdim, channel.Odd))
		}
	}
	return pool
}

// checkAgainstRef compares every observable of ts with the model; the
// pairwise queries (Allows, Contains, Matrix) run over the probe classes.
func checkAgainstRef(t *testing.T, step string, ts *TurnSet, ref *refTurnSet, probe []channel.Class) {
	t.Helper()
	if got, want := ts.Turns(), ref.sortedTurns(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Turns = %v, want %v", step, got, want)
	}
	if got, want := ts.Classes(), ref.classes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Classes = %v, want %v", step, got, want)
	}
	if ts.Len() != len(ref.turns) {
		t.Fatalf("%s: Len = %d, want %d", step, ts.Len(), len(ref.turns))
	}
	var n90, nU, nI int
	for k := range ref.turns {
		switch KindOf(k[0], k[1]) {
		case Turn90:
			n90++
		case UTurn:
			nU++
		default:
			nI++
		}
	}
	if a, b, c := ts.Counts(); a != n90 || b != nU || c != nI {
		t.Fatalf("%s: Counts = %d,%d,%d, want %d,%d,%d", step, a, b, c, n90, nU, nI)
	}
	for _, k := range []TurnKind{Turn90, UTurn, ITurn} {
		var want []Turn
		for _, tr := range ref.sortedTurns() {
			if tr.Kind() == k {
				want = append(want, tr)
			}
		}
		if got := ts.ByKind(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ByKind(%v) = %v, want %v", step, k, got, want)
		}
	}
	for src := Theorem(0); src <= ByTheorem3; src++ {
		var want []Turn
		for _, tr := range ref.sortedTurns() {
			if tr.Source == src {
				want = append(want, tr)
			}
		}
		if got := ts.BySource(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: BySource(%v) = %v, want %v", step, src, got, want)
		}
	}
	g1, g2 := ts.Fingerprint()
	if w1, w2 := ref.fingerprint(); g1 != w1 || g2 != w2 {
		t.Fatalf("%s: Fingerprint = %x,%x, want %x,%x", step, g1, g2, w1, w2)
	}
	m := ts.Matrix()
	for _, from := range probe {
		if ts.Declared(from) != ref.declared[from] {
			t.Fatalf("%s: Declared(%s) = %v", step, from, ts.Declared(from))
		}
		fi, fok := m.Index(from)
		if fok != ref.declared[from] {
			t.Fatalf("%s: Matrix().Index(%s) found = %v", step, from, fok)
		}
		for _, to := range probe {
			want := ref.allows(from, to)
			if ts.Allows(from, to) != want {
				t.Fatalf("%s: Allows(%s, %s) = %v, want %v", step, from, to, !want, want)
			}
			if ti, tok := m.Index(to); fok && tok && m.Allows(fi, ti) != want {
				t.Fatalf("%s: Matrix().Allows(%s, %s) = %v, want %v", step, from, to, !want, want)
			}
			src, in := ref.turns[[2]channel.Class{from, to}]
			for l := Theorem(0); l <= ByTheorem3; l++ {
				if got := ts.Contains(Turn{From: from, To: to, Source: l}); got != (in && src == l) {
					t.Fatalf("%s: Contains(%s>%s %v) = %v", step, from, to, l, got)
				}
			}
		}
	}
}

// TestTurnSetMatchesReference drives the dense TurnSet and the map-based
// model through the same seeded operation sequences — adds that relabel
// a turn to a lower or a higher theorem or carry Source 0, declarations,
// removals, clones and unions — and compares every observable after each
// step, Equal and Subset included.
func TestTurnSetMatchesReference(t *testing.T) {
	pool := refPool()
	r := rand.New(rand.NewSource(21))
	pick := func() channel.Class {
		// Draw from a window of the pool so sets stay small enough to
		// revisit the same turns, but sometimes from all of it so rows
		// span more than one word.
		if r.Intn(8) == 0 {
			return pool[r.Intn(len(pool))]
		}
		return pool[r.Intn(12)]
	}
	for seq := 0; seq < 24; seq++ {
		ts, ref := NewTurnSet(), newRefTurnSet()
		other, otherRef := NewTurnSet(), newRefTurnSet()
		if seq%4 == 0 {
			// Every pool class declared: rows take two words.
			ts.Declare(pool...)
			for _, c := range pool {
				ref.declared[c] = true
			}
		}
		for step := 0; step < 60; step++ {
			probe := append([]channel.Class(nil), pool[:12]...)
			for n := 0; n < 6; n++ {
				probe = append(probe, pool[r.Intn(len(pool))])
			}
			name := ""
			switch op := r.Intn(10); {
			case op < 5:
				from, to := pick(), pick()
				src := Theorem(r.Intn(4)) // 0 is ParseTurnList's label
				ts.Add(from, to, src)
				ref.add(from, to, src)
				name = "Add"
			case op < 6:
				var cls []channel.Class
				for n := r.Intn(4); n >= 0; n-- {
					cls = append(cls, pick())
				}
				ts.Declare(cls...)
				for _, c := range cls {
					ref.declared[c] = true
				}
				name = "Declare"
			case op < 8:
				from, to := pick(), pick()
				if got, want := ts.Remove(from, to), ref.remove(from, to); got != want {
					t.Fatalf("seq %d step %d: Remove(%s, %s) = %v, want %v", seq, step, from, to, got, want)
				}
				name = "Remove"
			case op < 9:
				// Mutating a clone must leave the original untouched.
				c := ts.Clone()
				from, to := pick(), pick()
				c.Add(from, to, ByTheorem1)
				c.Remove(pick(), pick())
				checkAgainstRef(t, "Clone original", ts, ref, probe)
				ts = ts.Clone()
				name = "Clone"
			default:
				from, to := pick(), pick()
				src := Theorem(r.Intn(4))
				other.Add(from, to, src)
				otherRef.add(from, to, src)
				u, uref := ts.Union(other), ref.union(otherRef)
				checkAgainstRef(t, "Union", u, uref, probe)
				if !ts.Subset(u) || !other.Subset(u) {
					t.Fatalf("seq %d step %d: an operand is not a Subset of its Union", seq, step)
				}
				if r.Intn(2) == 0 {
					ts, ref = u, uref
				}
				name = "Union"
			}
			checkAgainstRef(t, name, ts, ref, probe)
			if got, want := ts.Equal(other), len(ref.turns) == len(otherRef.turns) && ref.subset(otherRef); got != want {
				t.Fatalf("seq %d step %d: Equal = %v, want %v", seq, step, got, want)
			}
			if got, want := ts.Subset(other), ref.subset(otherRef); got != want {
				t.Fatalf("seq %d step %d: Subset = %v, want %v", seq, step, got, want)
			}
			if got, want := other.Subset(ts), otherRef.subset(ref); got != want {
				t.Fatalf("seq %d step %d: reverse Subset = %v, want %v", seq, step, got, want)
			}
			// Same class tables take Equal's and Subset's word-wise path.
			same := ts.Clone()
			if !same.Equal(ts) || !ts.Subset(same) {
				t.Fatalf("seq %d step %d: a clone is not Equal to its source", seq, step)
			}
		}
	}
}
