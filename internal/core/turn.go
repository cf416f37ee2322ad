// Package core implements the EbDa theory: partitions of channel classes,
// the three theorems governing when a partition (and a chain of partitions)
// is cycle-free, and the extraction of the full allowable turn set from a
// partition chain.
//
// The theory operates on abstract channel classes (see internal/channel).
// Designs produced here are independently verifiable on concrete networks
// through internal/cdg, which builds the induced channel dependency graph
// and checks it for cycles — the Dally condition.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"ebda/internal/channel"
)

// TurnKind classifies a transition between two channels by the angle
// between them, following the paper's Definitions 4 and 5.
type TurnKind int

// The three turn kinds.
const (
	// Turn90 is a transition between channels of different dimensions
	// (a 90-degree turn).
	Turn90 TurnKind = iota
	// UTurn is a transition between opposite directions of the same
	// dimension (a 180-degree turn), possibly with different VC numbers.
	UTurn
	// ITurn is a transition between channels of the same dimension and
	// direction but different VC numbers or parity classes (a 0-degree
	// turn).
	ITurn
)

// String returns "90", "U" or "I".
func (k TurnKind) String() string {
	switch k {
	case Turn90:
		return "90"
	case UTurn:
		return "U"
	case ITurn:
		return "I"
	default:
		return fmt.Sprintf("TurnKind(%d)", int(k))
	}
}

// Theorem identifies which of the paper's three theorems admits a turn.
type Theorem int

// The theorem labels used when annotating extracted turns.
const (
	// ByTheorem1 marks 90-degree turns formed inside a partition.
	ByTheorem1 Theorem = 1
	// ByTheorem2 marks U- and I-turns formed inside a partition under
	// the ascending-order rule.
	ByTheorem2 Theorem = 2
	// ByTheorem3 marks turns formed by transitions between partitions.
	ByTheorem3 Theorem = 3
)

// String returns "T1", "T2" or "T3".
func (t Theorem) String() string { return fmt.Sprintf("T%d", int(t)) }

// Turn is a permitted transition from one channel class to another.
type Turn struct {
	From, To channel.Class
	// Source records which theorem admitted the turn.
	Source Theorem
}

// Kind classifies the turn by the relation between its endpoints.
func (t Turn) Kind() TurnKind { return KindOf(t.From, t.To) }

// KindOf classifies the transition from one class to another.
func KindOf(from, to channel.Class) TurnKind {
	if from.Dim != to.Dim {
		return Turn90
	}
	if from.Sign != to.Sign {
		return UTurn
	}
	return ITurn
}

// String renders the turn in the figure notation of the paper, e.g. "E1N2"
// for VC-numbered channels or "WS" in plain 2D settings.
func (t Turn) String() string { return t.From.Short() + t.To.Short() }

// PlainString renders the turn using ShortPlain endpoint notation ("WS",
// "N1W1" only when VCs matter).
func (t Turn) PlainString() string { return t.From.ShortPlain() + t.To.ShortPlain() }

// TurnSet is the set of permitted transitions of a design, keyed by the
// (from, to) class pair, together with the set of channel classes the
// design declares (a class may be declared without participating in any
// turn, e.g. the only channel of a single-partition design). It is the
// object the paper's figures and tables enumerate, and the input from
// which routing algorithms and channel dependency graphs are built.
//
// Continuing along the same channel class (taking the class's next
// concrete channel without turning) is always permitted for declared
// classes — Definition 2's "arbitrarily and repeatedly" — and Allows
// reflects that.
//
// The set is dense: the declared classes are interned once, sorted by
// Class.Compare, and the turns are a bit-matrix over their indices with a
// theorem label per cell beside it. A TurnSet is built by one goroutine;
// once built, any number of goroutines may read it.
type TurnSet struct {
	// classes holds the declared classes in Class.Compare order; a
	// class's position is its index in turns and labels. The slice is
	// never written in place (declaring a class replaces it), so Clone
	// and Matrix share it.
	classes []channel.Class
	// words is the number of uint64 words in one row of turns.
	words int
	// turns[i*words : (i+1)*words] has bit j set when the turn from
	// class i to class j is in the set. The diagonal holds only explicit
	// self-turns: same-class continuation is implied by declaration.
	turns []uint64
	// labels[i*len(classes)+j] is the theorem that admitted turn i -> j.
	// It is read only where the turn's bit is set: 0 is a real label
	// (ParseTurnList yields Source 0), so it cannot mark absence.
	labels []uint8
}

// NewTurnSet returns an empty turn set.
func NewTurnSet() *TurnSet { return &TurnSet{} }

// index returns the interned index of a class, or false if the class is
// not declared.
func (s *TurnSet) index(c channel.Class) (int, bool) {
	return classIndex(s.classes, c)
}

// classIndex binary-searches a Class.Compare-sorted class list.
func classIndex(classes []channel.Class, c channel.Class) (int, bool) {
	lo, hi := 0, len(classes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if classes[mid].Compare(c) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(classes) && classes[lo] == c
}

// has reports whether the turn from class index i to class index j is
// in the set.
func (s *TurnSet) has(i, j int) bool {
	return s.turns[i*s.words+j/64]&(1<<uint(j%64)) != 0
}

// each calls fn for every turn, in (from, to) index order — which is
// (From, To) class order.
func (s *TurnSet) each(fn func(i, j int)) {
	for i := range s.classes {
		for w, word := range s.turns[i*s.words : (i+1)*s.words] {
			for ; word != 0; word &= word - 1 {
				fn(i, w*64+bits.TrailingZeros64(word))
			}
		}
	}
}

// turn returns the turn at class indices (i, j) with its label.
func (s *TurnSet) turn(i, j int) Turn {
	return Turn{From: s.classes[i], To: s.classes[j], Source: Theorem(s.labels[i*len(s.classes)+j])}
}

// Add inserts a turn and declares both endpoint classes. If the turn is
// already present, the earliest theorem label is kept (a turn admitted by
// Theorem 1 stays labelled T1 even if a later transition would also
// produce it). Labels are the package's theorem constants or 0; a label
// outside 0..255 is a programming error and panics.
func (s *TurnSet) Add(from, to channel.Class, src Theorem) {
	if src < 0 || src > math.MaxUint8 {
		panic(fmt.Sprintf("core: theorem label %d out of range", int(src)))
	}
	i, okFrom := s.index(from)
	j, okTo := s.index(to)
	if !okFrom || !okTo {
		s.Declare(from, to)
		i, _ = s.index(from)
		j, _ = s.index(to)
	}
	cell := i*len(s.classes) + j
	if s.has(i, j) && Theorem(s.labels[cell]) <= src {
		return
	}
	s.turns[i*s.words+j/64] |= 1 << uint(j%64)
	s.labels[cell] = uint8(src)
}

// Declare registers channel classes as part of the design without adding
// any turn. Declared classes permit same-class continuation. Declaring
// every class before adding turns sizes the tables once.
func (s *TurnSet) Declare(cls ...channel.Class) {
	var merged []channel.Class // s.classes plus the new classes, once one is found
	for _, c := range cls {
		if _, ok := s.index(c); ok {
			continue
		}
		if merged == nil {
			merged = append(make([]channel.Class, 0, len(s.classes)+len(cls)), s.classes...)
		} else if slices.Contains(merged[len(s.classes):], c) {
			continue
		}
		merged = append(merged, c)
	}
	if merged != nil {
		slices.SortFunc(merged, channel.Class.Compare)
		s.relayout(merged)
	}
}

// relayout moves the set onto a larger sorted class list, a superset of
// the current one, carrying every turn and label to its new indices.
func (s *TurnSet) relayout(classes []channel.Class) {
	n, words := len(classes), (len(classes)+63)/64
	turns := make([]uint64, n*words)
	labels := make([]uint8, n*n)
	s.each(func(i, j int) {
		a, _ := classIndex(classes, s.classes[i])
		b, _ := classIndex(classes, s.classes[j])
		turns[a*words+b/64] |= 1 << uint(b%64)
		labels[a*n+b] = s.labels[i*len(s.classes)+j]
	})
	s.classes, s.words, s.turns, s.labels = classes, words, turns, labels
}

// Declared reports whether a class is part of the design.
func (s *TurnSet) Declared(cls channel.Class) bool {
	_, ok := s.index(cls)
	return ok
}

// Allows reports whether the transition from one class to another is
// permitted: either an explicit turn, or same-class continuation of a
// declared class.
func (s *TurnSet) Allows(from, to channel.Class) bool {
	i, ok := s.index(from)
	if !ok || from == to {
		return ok
	}
	j, ok := s.index(to)
	return ok && s.has(i, j)
}

// Contains reports whether the exact turn (including its theorem label) is
// present.
func (s *TurnSet) Contains(t Turn) bool {
	i, okFrom := s.index(t.From)
	j, okTo := s.index(t.To)
	return okFrom && okTo && s.has(i, j) && Theorem(s.labels[i*len(s.classes)+j]) == t.Source
}

// Len returns the number of turns in the set.
func (s *TurnSet) Len() int {
	n := 0
	for _, w := range s.turns {
		n += bits.OnesCount64(w)
	}
	return n
}

// Turns returns all turns sorted by (From, To) class order.
func (s *TurnSet) Turns() []Turn {
	out := make([]Turn, 0, s.Len())
	s.each(func(i, j int) { out = append(out, s.turn(i, j)) })
	return out
}

// ByKind returns the turns of one kind, sorted.
func (s *TurnSet) ByKind(k TurnKind) []Turn {
	var out []Turn
	s.each(func(i, j int) {
		if KindOf(s.classes[i], s.classes[j]) == k {
			out = append(out, s.turn(i, j))
		}
	})
	return out
}

// BySource returns the turns admitted by one theorem, sorted.
func (s *TurnSet) BySource(src Theorem) []Turn {
	var out []Turn
	s.each(func(i, j int) {
		if t := s.turn(i, j); t.Source == src {
			out = append(out, t)
		}
	})
	return out
}

// Counts returns the number of 90-degree, U- and I-turns in the set.
func (s *TurnSet) Counts() (n90, nU, nI int) {
	s.each(func(i, j int) {
		switch KindOf(s.classes[i], s.classes[j]) {
		case Turn90:
			n90++
		case UTurn:
			nU++
		case ITurn:
			nI++
		}
	})
	return
}

// Classes returns every declared channel class (which includes every turn
// endpoint), sorted.
func (s *TurnSet) Classes() []channel.Class {
	out := make([]channel.Class, len(s.classes))
	copy(out, s.classes)
	return out
}

// AllowMatrix is an immutable dense snapshot of a turn set's transition
// relation over interned class indices. Hot loops (channel-dependency
// extraction, path counting) use it in place of TurnSet.Allows: every
// Allows test is one bit probe.
//
// The matrix reflects the turn set at the time Matrix was called; turns
// added later are not visible.
type AllowMatrix struct {
	classes []channel.Class
	words   int
	// rows[i*words : (i+1)*words] is the bitset of classes reachable
	// from class i.
	rows []uint64
}

// Matrix returns the dense allow-matrix of the set's current state. Class
// indices follow Classes() order (sorted), and same-class continuation of
// declared classes is included, matching Allows. The snapshot copies the
// set's turn bits and sets the diagonal; each call builds a new one.
//
//ebda:hotpath
func (s *TurnSet) Matrix() *AllowMatrix {
	m := &AllowMatrix{}
	s.MatrixInto(m)
	return m
}

// MatrixInto is Matrix written over m, whose buffer it reuses, so a
// caller that keeps one matrix takes snapshots without allocating. No one
// else may be reading m.
func (s *TurnSet) MatrixInto(m *AllowMatrix) {
	m.classes, m.words = s.classes, s.words
	m.rows = append(m.rows[:0], s.turns...)
	for i := range s.classes {
		m.rows[i*m.words+i/64] |= 1 << uint(i%64)
	}
}

// NumClasses returns the number of interned classes.
func (m *AllowMatrix) NumClasses() int { return len(m.classes) }

// Classes returns the interned classes in index order. The slice must not
// be modified.
func (m *AllowMatrix) Classes() []channel.Class { return m.classes }

// Index returns the interned index of a class, or false if the class was
// not part of the set when the matrix was built.
func (m *AllowMatrix) Index(c channel.Class) (int, bool) {
	return classIndex(m.classes, c)
}

// Allows reports whether the transition from class index from to class
// index to is permitted.
func (m *AllowMatrix) Allows(from, to int) bool {
	return m.rows[from*m.words+to/64]&(1<<uint(to%64)) != 0
}

// AllowsAny reports whether any (from, to) pair across the two index sets
// is permitted — the inner test of dependency-edge construction.
func (m *AllowMatrix) AllowsAny(from, to []int32) bool {
	for _, a := range from {
		row := m.rows[int(a)*m.words:]
		for _, b := range to {
			if row[b/64]&(1<<uint(b%64)) != 0 {
				return true
			}
		}
	}
	return false
}

// Clone returns a deep copy of the set: same turns (with labels) and the
// same declared classes. Delta verification clones the base relation
// before toggling turns so the base set stays untouched.
func (s *TurnSet) Clone() *TurnSet {
	return &TurnSet{
		classes: s.classes,
		words:   s.words,
		turns:   slices.Clone(s.turns),
		labels:  slices.Clone(s.labels),
	}
}

// Remove deletes the turn from one class to another and reports whether it
// was present. Both endpoint classes stay declared — removing a turn
// narrows the transition relation without shrinking the design's channel
// class set, which keeps interned class tables (and the VC configuration
// they imply) stable across turn-toggle deltas.
func (s *TurnSet) Remove(from, to channel.Class) bool {
	i, okFrom := s.index(from)
	j, okTo := s.index(to)
	if !okFrom || !okTo || !s.has(i, j) {
		return false
	}
	s.turns[i*s.words+j/64] &^= 1 << uint(j%64)
	s.labels[i*len(s.classes)+j] = 0
	return true
}

// Union returns a new set containing the turns and declared classes of
// both sets. A turn in both keeps the earlier theorem label.
func (s *TurnSet) Union(o *TurnSet) *TurnSet {
	u := NewTurnSet()
	u.Declare(s.classes...)
	u.Declare(o.classes...)
	for _, x := range []*TurnSet{s, o} {
		x.each(func(i, j int) {
			t := x.turn(i, j)
			u.Add(t.From, t.To, t.Source)
		})
	}
	return u
}

// Equal reports whether two sets permit exactly the same transitions
// (theorem labels are ignored).
func (s *TurnSet) Equal(o *TurnSet) bool {
	if slices.Equal(s.classes, o.classes) {
		return slices.Equal(s.turns, o.turns)
	}
	return s.Len() == o.Len() && s.Subset(o)
}

// Subset reports whether every turn in s is also in o.
func (s *TurnSet) Subset(o *TurnSet) bool {
	if slices.Equal(s.classes, o.classes) {
		for w, word := range s.turns {
			if word&^o.turns[w] != 0 {
				return false
			}
		}
		return true
	}
	in := true
	s.each(func(i, j int) {
		oi, okFrom := o.index(s.classes[i])
		oj, okTo := o.index(s.classes[j])
		in = in && okFrom && okTo && o.has(oi, oj)
	})
	return in
}

// Fingerprint returns two independent 64-bit digests of the transition
// relation: the declared classes plus every (from, to) turn pair. Theorem
// labels are excluded — verification depends only on Allows — so two sets
// that are Equal with the same declarations always share a fingerprint,
// even when built by different derivations. Per-element digests combine by
// addition, which is commutative, so the digest does not depend on the
// order elements are visited in. Verification caches key on the first
// digest and store the second as a collision check.
func (s *TurnSet) Fingerprint() (uint64, uint64) {
	const (
		declSeedA = 0x9e3779b97f4a7c15
		declSeedB = 0xc2b2ae3d27d4eb4f
		turnSeedA = 0xd6e8feb86659fd93
		turnSeedB = 0xa0761d6478bd642f
	)
	var h1, h2 uint64
	for i, c := range s.classes {
		e := classCode(c)
		h1 += mix64(e ^ declSeedA)
		h2 += mix64(e ^ declSeedB)
		// The pair combination is ordered (from*prime ^ to), so the turn
		// a->b and its reverse b->a digest differently.
		from := e * 0x100000001b3
		for w, word := range s.turns[i*s.words : (i+1)*s.words] {
			for ; word != 0; word &= word - 1 {
				e := from ^ classCode(s.classes[w*64+bits.TrailingZeros64(word)])
				h1 += mix64(e ^ turnSeedA)
				h2 += mix64(e ^ turnSeedB)
			}
		}
	}
	return h1, h2
}

// classCode packs a channel class into a uint64 for fingerprinting.
func classCode(c channel.Class) uint64 {
	e := uint64(uint32(int32(c.Dim)))
	e = e*1000003 + uint64(uint32(int32(c.Sign)))
	e = e*1000003 + uint64(uint32(int32(c.VC)))
	e = e*1000003 + uint64(uint32(int32(c.PDim)))
	e = e*1000003 + uint64(uint32(int32(c.Par)))
	return e
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed bijection
// used to decorrelate the additive fingerprint terms.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// String renders the set grouped by kind, in Short notation, e.g.
// "90: E1N1 N1E1 | U: U1D1 | I: E1E2".
func (s *TurnSet) String() string {
	var b strings.Builder
	for i, k := range []TurnKind{Turn90, UTurn, ITurn} {
		ts := s.ByKind(k)
		if len(ts) == 0 {
			continue
		}
		if i > 0 && b.Len() > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s:", k)
		for _, t := range ts {
			b.WriteByte(' ')
			b.WriteString(t.String())
		}
	}
	return b.String()
}

// FormatTurns renders a list of turns as space-separated Short notation.
func FormatTurns(ts []Turn) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// FormatTurnsPlain renders a list of turns as space-separated ShortPlain
// notation ("WS SE ES SW").
func FormatTurnsPlain(ts []Turn) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.PlainString()
	}
	return strings.Join(parts, " ")
}

// ParseTurnList parses turns given as "from>to" pairs separated by spaces or
// commas, where each endpoint uses the channel.Parse notation, e.g.
// "X+>Y+, Y1->X2+". It is used by the verification CLI.
func ParseTurnList(s string) ([]Turn, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == ',' })
	out := make([]Turn, 0, len(fields))
	for _, f := range fields {
		parts := strings.Split(f, ">")
		if len(parts) != 2 {
			return nil, fmt.Errorf("core: malformed turn %q (want from>to)", f)
		}
		from, err := channel.Parse(parts[0])
		if err != nil {
			return nil, err
		}
		to, err := channel.Parse(parts[1])
		if err != nil {
			return nil, err
		}
		out = append(out, Turn{From: from, To: to})
	}
	return out, nil
}
