package core

import (
	"errors"
	"fmt"
	"strings"

	"ebda/internal/channel"
)

// Chain is an ordered sequence of disjoint cycle-free partitions. Packets
// may move between partitions only in ascending chain order (Theorem 3);
// within a partition they move freely (Theorem 1) plus the ascending U/I
// turns (Theorem 2). A validated chain therefore induces an acyclic channel
// dependency graph, i.e. a deadlock-free wormhole design.
type Chain struct {
	parts []*Partition
}

// NewChain builds a chain from partitions in transition order and validates
// it: every partition must satisfy Theorem 1 and all partitions must be
// pairwise disjoint.
func NewChain(parts ...*Partition) (*Chain, error) {
	c := &Chain{parts: append([]*Partition(nil), parts...)}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustChain is NewChain that panics on error.
func MustChain(parts ...*Partition) *Chain {
	c, err := NewChain(parts...)
	if err != nil {
		panic(err)
	}
	return c
}

// ParseChain parses the paper's arrow notation, e.g.
// "PA[X+ X- Y-] -> PB[Y+]" or "X+Y+ -> X-Y-" (with partitions auto-named
// PA, PB, ... when unnamed). Channels within a partition are separated by
// spaces; "Z1*" expands to "Z1+ Z1-".
func ParseChain(s string) (*Chain, error) {
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
		p, err := ParsePartition(seg)
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

// MustParseChain is ParseChain that panics on error.
func MustParseChain(s string) *Chain {
	c, err := ParseChain(s)
	if err != nil {
		panic(err)
	}
	return c
}

// autoName returns PA, PB, ..., PZ, P26, P27, ...
func autoName(i int) string {
	if i < 26 {
		return "P" + string(rune('A'+i))
	}
	return fmt.Sprintf("P%d", i)
}

// ErrNotDisjoint is returned when two partitions of a chain share a channel.
var ErrNotDisjoint = errors.New("core: partitions are not disjoint")

// Validate checks Theorem 1 on every partition and pairwise disjointness
// across the chain (the precondition of Theorem 3).
func (c *Chain) Validate() error {
	if len(c.parts) == 0 {
		return errors.New("core: chain has no partitions")
	}
	for _, p := range c.parts {
		if err := p.CheckTheorem1(); err != nil {
			return err
		}
	}
	for i, a := range c.parts {
		for _, b := range c.parts[i+1:] {
			if !a.Disjoint(b) {
				return fmt.Errorf("%w: %s and %s share a channel",
					ErrNotDisjoint, a.Name(), b.Name())
			}
		}
	}
	return nil
}

// Partitions returns the chain's partitions in transition order. The
// returned slice must not be modified.
func (c *Chain) Partitions() []*Partition { return c.parts }

// Len returns the number of partitions.
func (c *Chain) Len() int { return len(c.parts) }

// Channels returns every channel class of the chain, in partition order.
func (c *Chain) Channels() []channel.Class {
	n := 0
	for _, p := range c.parts {
		n += len(p.channels)
	}
	out := make([]channel.Class, 0, n)
	for _, p := range c.parts {
		out = append(out, p.Channels()...)
	}
	return out
}

// PartitionOf returns the index of the partition containing the exact
// class, or -1 if no partition contains it.
func (c *Chain) PartitionOf(cls channel.Class) int {
	for i, p := range c.parts {
		if p.Contains(cls) {
			return i
		}
	}
	return -1
}

// TurnOptions controls which theorems contribute to turn extraction.
type TurnOptions struct {
	// UITurns enables Theorem 2 (U- and I-turns inside partitions) and
	// the U/I turns arising from Theorem-3 transitions. The paper's
	// Theorem-1-only figures set this false.
	UITurns bool
	// ConsecutiveOnly restricts Theorem-3 transitions to adjacent
	// partitions (Pi -> Pi+1). By the corollary of Theorem 3 transitions
	// may be taken in any ascending order, which is the default (false):
	// every Pi -> Pj with i < j.
	ConsecutiveOnly bool
	// NoTransitions disables Theorem 3 entirely, extracting only
	// intra-partition turns.
	NoTransitions bool
}

// DefaultTurnOptions enables everything the theory permits: Theorems 1-3
// with any-ascending-order transitions.
var DefaultTurnOptions = TurnOptions{UITurns: true}

// Turns extracts the complete allowable turn set of the chain under the
// given options. This reproduces the paper's Figure 8 procedure:
//
//   - Theorem 1: all 90-degree turns inside each partition;
//   - Theorem 2: ascending U/I-turns inside each partition;
//   - Theorem 3: all transitions from each partition to every later
//     partition (or only the next one if ConsecutiveOnly), classified as
//     90-degree, U- or I-turns.
func (c *Chain) Turns(opts TurnOptions) *TurnSet {
	s := NewTurnSet()
	s.Declare(c.Channels()...)
	for _, p := range c.parts {
		p.addInnerTurns(s, opts.UITurns)
	}
	if opts.NoTransitions {
		return s
	}
	for i, from := range c.parts {
		for j := i + 1; j < len(c.parts); j++ {
			if opts.ConsecutiveOnly && j != i+1 {
				break
			}
			to := c.parts[j]
			for _, a := range from.Channels() {
				for _, b := range to.Channels() {
					if !opts.UITurns && KindOf(a, b) != Turn90 {
						continue
					}
					s.Add(a, b, ByTheorem3)
				}
			}
		}
	}
	return s
}

// AllTurns is Turns with DefaultTurnOptions.
func (c *Chain) AllTurns() *TurnSet { return c.Turns(DefaultTurnOptions) }

// Turns90 is Turns with U/I-turns disabled (Theorems 1 and 3, 90-degree
// turns only) — the view used when comparing against classic turn models.
func (c *Chain) Turns90() *TurnSet { return c.Turns(TurnOptions{}) }

// Reversed returns a new chain with the partition (transition) order
// reversed. Per Section 5.3.3 this derives a different deadlock-free
// algorithm from the same partitions.
func (c *Chain) Reversed() *Chain {
	parts := make([]*Partition, len(c.parts))
	for i, p := range c.parts {
		parts[len(parts)-1-i] = p
	}
	return &Chain{parts: parts}
}

// MaxChannelsPerPartition returns n+1: the maximum number of channels that
// can be grouped inside a partition of an n-dimensional network with no
// redundancy (note to Theorem 1).
func MaxChannelsPerPartition(n int) int { return n + 1 }

// MinChannelsFullyAdaptive returns (n+1) * 2^(n-1): the paper's minimum
// number of channels providing fully adaptive routing in an n-dimensional
// network (Section 4).
func MinChannelsFullyAdaptive(n int) int {
	if n < 1 {
		return 0
	}
	return (n + 1) << (n - 1)
}

// String renders the chain in the paper's arrow notation.
func (c *Chain) String() string {
	parts := make([]string, len(c.parts))
	for i, p := range c.parts {
		parts[i] = p.String()
	}
	return strings.Join(parts, " -> ")
}

// PlainString renders the chain with VC-1 numbers elided.
func (c *Chain) PlainString() string {
	parts := make([]string, len(c.parts))
	for i, p := range c.parts {
		parts[i] = p.PlainString()
	}
	return strings.Join(parts, " -> ")
}

// Equal reports whether two chains have equal partitions in the same order.
func (c *Chain) Equal(o *Chain) bool {
	if len(c.parts) != len(o.parts) {
		return false
	}
	for i := range c.parts {
		if !c.parts[i].Equal(o.parts[i]) {
			return false
		}
	}
	return true
}
