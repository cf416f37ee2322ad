package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"ebda/internal/channel"
)

// Partition is an ordered set of channel classes that packets may use
// arbitrarily and repeatedly (Definition 2). The order of the channels is
// semantic: it fixes the ascending numbering used by Theorem 2 to decide
// which U- and I-turns along the complete-pair dimension are permitted.
type Partition struct {
	name     string
	channels []channel.Class
}

// NewPartition builds a partition from the given channel classes in order.
// Duplicate or invalid classes are rejected.
func NewPartition(name string, classes ...channel.Class) (*Partition, error) {
	p := &Partition{name: name, channels: append([]channel.Class(nil), classes...)}
	for i, c := range classes {
		if !c.Valid() {
			return nil, fmt.Errorf("core: partition %s: invalid channel class %+v", name, c)
		}
		if slices.Contains(classes[:i], c) {
			return nil, fmt.Errorf("core: partition %s: duplicate channel %s", name, c)
		}
	}
	return p, nil
}

// MustPartition is NewPartition that panics on error.
func MustPartition(name string, classes ...channel.Class) *Partition {
	p, err := NewPartition(name, classes...)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePartition builds a partition from the paper's bracket notation,
// e.g. "PA[X1+ Y1+ Z1+ Z1-]" or just "X+ X- Y-" (the name is then empty).
// A trailing "*" on a dimension expands to both directions: "Z1*" means
// "Z1+ Z1-".
func ParsePartition(s string) (*Partition, error) {
	name := ""
	body := strings.TrimSpace(s)
	if i := strings.IndexByte(body, '['); i >= 0 {
		if !strings.HasSuffix(body, "]") {
			return nil, fmt.Errorf("core: malformed partition %q", s)
		}
		name = strings.TrimSpace(body[:i])
		body = body[i+1 : len(body)-1]
	}
	var classes []channel.Class
	for _, f := range strings.Fields(body) {
		if strings.HasSuffix(f, "*") {
			base := f[:len(f)-1]
			plus, err := channel.Parse(base + "+")
			if err != nil {
				return nil, err
			}
			classes = append(classes, plus, plus.Opposite())
			continue
		}
		c, err := channel.Parse(f)
		if err != nil {
			return nil, err
		}
		classes = append(classes, c)
	}
	return NewPartition(name, classes...)
}

// MustParsePartition is ParsePartition that panics on error.
func MustParsePartition(s string) *Partition {
	p, err := ParsePartition(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the partition's label (PA, PB, ...; may be empty).
func (p *Partition) Name() string { return p.name }

// WithName returns a copy of the partition with a new label.
func (p *Partition) WithName(name string) *Partition {
	return &Partition{name: name, channels: p.channels}
}

// Channels returns the partition's channel classes in order. The returned
// slice must not be modified.
func (p *Partition) Channels() []channel.Class { return p.channels }

// Len returns the number of channel classes in the partition.
func (p *Partition) Len() int { return len(p.channels) }

// Contains reports whether the exact class is a member of the partition.
func (p *Partition) Contains(c channel.Class) bool {
	for _, pc := range p.channels {
		if pc == c {
			return true
		}
	}
	return false
}

// CompletePairDims returns the dimensions for which the partition covers a
// complete D-pair — both positive and negative directions, in any VC or
// parity combination that can overlap on a concrete network (Definition 3).
//
// Parity-disjoint opposite directions (e.g. Xe+ together with Xo-) do NOT
// form a complete pair: no single position class offers both directions, so
// a path cannot reverse within the partition. This is what makes the
// Hamiltonian-path partitioning {Xe+ Xo- Y+} a legal Theorem-1 partition.
func (p *Partition) CompletePairDims() []channel.Dim {
	var dims []channel.Dim
	for i, a := range p.channels {
		if slices.Contains(dims, a.Dim) {
			continue
		}
		for _, b := range p.channels[i+1:] {
			if a.Dim != b.Dim || a.Sign == b.Sign {
				continue
			}
			if !parityCompatible(a, b) {
				continue
			}
			dims = append(dims, a.Dim)
			break
		}
	}
	return dims
}

// parityCompatible reports whether two opposite-direction classes of the
// same dimension can meet at a common position and hence close a 180-degree
// movement. Classes restricted to complementary parities of the same
// coordinate never meet.
func parityCompatible(a, b channel.Class) bool {
	if a.Par == channel.Any || b.Par == channel.Any {
		return true
	}
	if a.PDim != b.PDim {
		return true
	}
	return a.Par == b.Par
}

// ErrTheorem1 is returned when a partition covers more than one complete
// D-pair, violating Theorem 1.
var ErrTheorem1 = errors.New("core: partition violates Theorem 1 (more than one complete D-pair)")

// CheckTheorem1 verifies the partition covers at most one complete D-pair.
// On failure the returned error wraps ErrTheorem1 and names the offending
// dimensions.
func (p *Partition) CheckTheorem1() error {
	dims := p.CompletePairDims()
	if len(dims) <= 1 {
		return nil
	}
	names := make([]string, len(dims))
	for i, d := range dims {
		names[i] = d.String()
	}
	return fmt.Errorf("%w: partition %s has complete pairs in dimensions %s",
		ErrTheorem1, p.name, strings.Join(names, ", "))
}

// CycleFree reports whether the partition satisfies Theorem 1.
func (p *Partition) CycleFree() bool { return p.CheckTheorem1() == nil }

// Disjoint reports whether two partitions share no overlapping channel
// class (Definition 6). Classes that could denote a common concrete channel
// — same dimension/direction/VC with compatible parities — count as shared.
func (p *Partition) Disjoint(o *Partition) bool {
	for _, a := range p.channels {
		for _, b := range o.channels {
			if a.Overlaps(b) {
				return false
			}
		}
	}
	return true
}

// SubPartition returns a new partition containing only the listed classes,
// which must all be members. Per the corollary of Theorem 1, any
// sub-partition of a cycle-free partition is cycle-free.
func (p *Partition) SubPartition(name string, classes ...channel.Class) (*Partition, error) {
	for _, c := range classes {
		if !p.Contains(c) {
			return nil, fmt.Errorf("core: %s is not a member of partition %s", c, p.name)
		}
	}
	return NewPartition(name, classes...)
}

// InnerTurns returns the turns permitted inside the partition alone:
//
//   - Theorem 1: every ordered pair of channels in different dimensions
//     (all 90-degree turns, usable arbitrarily and repeatedly);
//   - Theorem 2 (if includeUI): along each complete-pair dimension the
//     channels are numbered in partition order and transitions are allowed
//     strictly ascending (yielding the permitted U- and I-turns); along
//     dimensions without a complete pair all I-turns are allowed in both
//     orders (corollary of Theorem 2).
//
// The result is empty of U/I turns when includeUI is false, matching the
// Theorem-1-only view used in several of the paper's figures.
func (p *Partition) InnerTurns(includeUI bool) *TurnSet {
	s := NewTurnSet()
	p.addInnerTurns(s, includeUI)
	return s
}

func (p *Partition) addInnerTurns(s *TurnSet, includeUI bool) {
	s.Declare(p.channels...)
	// Theorem 1: 90-degree turns between different dimensions.
	for _, a := range p.channels {
		for _, b := range p.channels {
			if a.Dim != b.Dim {
				s.Add(a, b, ByTheorem1)
			}
		}
	}
	if !includeUI {
		return
	}
	// Theorem 2: along a complete-pair dimension, transitions go strictly
	// ascending in partition order. By its corollary, a single-direction
	// dimension cannot close a cycle, so its I-turns go both ways.
	complete := p.CompletePairDims()
	for x, a := range p.channels {
		ascending := slices.Contains(complete, a.Dim)
		for y, b := range p.channels {
			if x != y && a.Dim == b.Dim && (y > x || !ascending) {
				s.Add(a, b, ByTheorem2)
			}
		}
	}
}

// UITurnCounts returns, for a set of n channels along one complete-pair
// dimension with a channels in the positive and b in the negative direction,
// the number of permitted U- and I-turns under the ascending rule. The paper
// (Figure 4) shows total = n(n-1)/2 = a*b + C(a,2) + C(b,2).
func UITurnCounts(a, b int) (uTurns, iTurns, total int) {
	uTurns = a * b
	iTurns = a*(a-1)/2 + b*(b-1)/2
	total = uTurns + iTurns
	return
}

// String renders the partition in the paper's notation: "PA[X1+ Y1+ Z1*]".
// Complete same-VC pairs are not compressed to "*"; each class prints
// individually for clarity.
func (p *Partition) String() string {
	var b strings.Builder
	if p.name != "" {
		b.WriteString(p.name)
	}
	b.WriteByte('[')
	for i, c := range p.channels {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.String())
	}
	b.WriteByte(']')
	return b.String()
}

// PlainString renders the partition with VC-1 numbers elided:
// "PA[X+ X- Y-]".
func (p *Partition) PlainString() string {
	var b strings.Builder
	if p.name != "" {
		b.WriteString(p.name)
	}
	b.WriteByte('[')
	for i, c := range p.channels {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.Plain())
	}
	b.WriteByte(']')
	return b.String()
}

// Equal reports whether two partitions contain exactly the same classes in
// the same order (names are ignored).
func (p *Partition) Equal(o *Partition) bool {
	if len(p.channels) != len(o.channels) {
		return false
	}
	for i := range p.channels {
		if p.channels[i] != o.channels[i] {
			return false
		}
	}
	return true
}

// EqualUnordered reports whether two partitions contain the same set of
// classes regardless of order.
func (p *Partition) EqualUnordered(o *Partition) bool {
	if len(p.channels) != len(o.channels) {
		return false
	}
	for _, c := range p.channels {
		if !o.Contains(c) {
			return false
		}
	}
	return true
}
