// Package partstrat implements the paper's Section 5: the systematic
// partitioning methodology that turns a channel inventory (how many VCs per
// dimension) into families of deadlock-free routing designs, from maximally
// adaptive down to deterministic.
//
// The entry points mirror the paper's structure:
//
//   - Set / Arrangement model the per-dimension channel sets and their
//     ordering rules (Section 5.1);
//   - Arrangement.Partition is Algorithm 1, the main extraction procedure
//     (Section 5.2.1);
//   - ExceptionalCase is the no-VC two-partition construction
//     (Section 5.2.2);
//   - Derive is Algorithm 2, enumerating channel reorderings
//     (Section 5.3.1);
//   - SplitLast / FullSplit increase the partition count, trading
//     adaptiveness for simplicity down to deterministic routing
//     (Section 5.3.2); core.Chain.Reversed covers Section 5.3.3;
//   - MinFullyAdaptiveChain builds the Section-4 minimum-channel fully
//     adaptive design, (n+1)*2^(n-1) channels in 2^(n-1) partitions.
package partstrat

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ebda/internal/channel"
	"ebda/internal/core"
)

// Set is the ordered channel list of one dimension, as used by the
// arrangement step. The order is semantic: Algorithm 1 consumes channels
// from the front, and for the leading set the first two channels form the
// D-pair placed in the next partition, so sets intended to lead should be
// arranged pairwise ({Y1+ Y1-, Y2+ Y2-} or the mixed {Y2+ Y1-, Y1+ Y2-} of
// Arrangement 3).
type Set struct {
	Dim      channel.Dim
	Channels []channel.Class
}

// PairedSet returns the canonical set for a dimension with the given number
// of VCs: D1+ D1- D2+ D2- ... (Arrangement 1 ordering).
func PairedSet(d channel.Dim, vcs int) Set {
	s := Set{Dim: d}
	for vc := 1; vc <= vcs; vc++ {
		s.Channels = append(s.Channels,
			channel.NewVC(d, channel.Plus, vc),
			channel.NewVC(d, channel.Minus, vc))
	}
	return s
}

// NewSet builds a set from explicit classes, validating that they all
// belong to the stated dimension.
func NewSet(d channel.Dim, classes ...channel.Class) (Set, error) {
	for _, c := range classes {
		if c.Dim != d {
			return Set{}, fmt.Errorf("partstrat: channel %s does not belong to dimension %s", c, d)
		}
	}
	return Set{Dim: d, Channels: append([]channel.Class(nil), classes...)}, nil
}

// MustSet is NewSet that panics on error.
func MustSet(d channel.Dim, classes ...channel.Class) Set {
	s, err := NewSet(d, classes...)
	if err != nil {
		panic(err)
	}
	return s
}

// PairCount returns the number of complete D-pairs the set can still cover:
// min(#positive, #negative channels). This is the ordering key of
// Arrangement 1.
func (s Set) PairCount() int {
	pos, neg := 0, 0
	for _, c := range s.Channels {
		if c.Sign == channel.Plus {
			pos++
		} else {
			neg++
		}
	}
	if pos < neg {
		return pos
	}
	return neg
}

// Len returns the number of channels remaining in the set.
func (s Set) Len() int { return len(s.Channels) }

// clone returns a deep copy.
func (s Set) clone() Set {
	return Set{Dim: s.Dim, Channels: append([]channel.Class(nil), s.Channels...)}
}

// rotated returns the set cyclically left-shifted by k channels.
func (s Set) rotated(k int) Set {
	n := len(s.Channels)
	if n == 0 {
		return s.clone()
	}
	k = ((k % n) + n) % n
	out := Set{Dim: s.Dim, Channels: make([]channel.Class, 0, n)}
	out.Channels = append(out.Channels, s.Channels[k:]...)
	out.Channels = append(out.Channels, s.Channels[:k]...)
	return out
}

// String renders the set as "X: X1+ X1- X2+ X2-".
func (s Set) String() string {
	parts := make([]string, len(s.Channels))
	for i, c := range s.Channels {
		parts[i] = c.String()
	}
	return s.Dim.String() + ": " + strings.Join(parts, " ")
}

// Arrangement is an ordered list of sets, the input to Algorithm 1. The
// first set leads: each extracted partition takes its next D-pair from
// Set1 and one channel from each following set.
type Arrangement []Set

// ArrangeByPairs orders sets by descending pair count (Arrangement 1). The
// sort is stable, so ties keep the caller's order — choosing among tied
// orders is exactly the freedom Arrangement 2 describes.
func ArrangeByPairs(sets ...Set) Arrangement {
	out := make(Arrangement, len(sets))
	copy(out, sets)
	sort.SliceStable(out, func(i, j int) bool { return out[i].PairCount() > out[j].PairCount() })
	return out
}

// ArrangementFor builds the canonical Arrangement-1 input for a network
// whose dimension d has vcCounts[d] virtual channels.
func ArrangementFor(vcCounts []int) Arrangement {
	sets := make([]Set, len(vcCounts))
	for d, v := range vcCounts {
		sets[d] = PairedSet(channel.Dim(d), v)
	}
	return ArrangeByPairs(sets...)
}

// DefaultMeshSizes is the mesh a dims-dimensional design is verified on
// when none is named: 5 per side up to 2D, 3 in 3D, 2 beyond, so the
// graph stays small as the dimension grows.
func DefaultMeshSizes(dims int) []int {
	side := 2
	switch {
	case dims <= 2:
		side = 5
	case dims == 3:
		side = 3
	}
	sizes := make([]int, dims)
	for i := range sizes {
		sizes[i] = side
	}
	return sizes
}

// clone deep-copies the arrangement.
func (a Arrangement) clone() Arrangement {
	out := make(Arrangement, len(a))
	for i, s := range a {
		out[i] = s.clone()
	}
	return out
}

// empty reports whether all sets are exhausted.
func (a Arrangement) empty() bool {
	for _, s := range a {
		if s.Len() > 0 {
			return false
		}
	}
	return true
}

// Partition runs Algorithm 1: repeatedly form a partition from the leading
// set's next D-pair plus the first channel of every other set, remove the
// consumed channels, and re-sort sets by remaining pair count (stable).
// The procedure terminates when all sets are empty; trailing partitions may
// be smaller when channels run out.
func (a Arrangement) Partition() (*core.Chain, error) {
	sets := a.clone()
	var parts []*core.Partition
	for i := 0; !sets.empty(); i++ {
		if i > 1024 {
			return nil, errors.New("partstrat: Algorithm 1 failed to terminate")
		}
		var classes []channel.Class
		// Lead set contributes its next D-pair (or its last channel).
		lead := &sets[0]
		take := 2
		if lead.Len() < 2 {
			take = lead.Len()
		}
		classes = append(classes, lead.Channels[:take]...)
		lead.Channels = lead.Channels[take:]
		// Every other set contributes one channel.
		for j := 1; j < len(sets); j++ {
			s := &sets[j]
			if s.Len() == 0 {
				continue
			}
			classes = append(classes, s.Channels[0])
			s.Channels = s.Channels[1:]
		}
		if len(classes) == 0 {
			break
		}
		p, err := core.NewPartition(autoName(i), classes...)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
		// Re-sort by remaining pair count (stable), per the paper's
		// "sets are reordered if necessary".
		sort.SliceStable(sets, func(x, y int) bool {
			return sets[x].PairCount() > sets[y].PairCount()
		})
	}
	chain, err := core.NewChain(parts...)
	if err == nil {
		obsChainsAlgorithm1.Inc()
	}
	return chain, err
}

func autoName(i int) string {
	if i < 26 {
		return "P" + string(rune('A'+i))
	}
	return fmt.Sprintf("P%d", i)
}

// Derive runs Algorithm 2: it enumerates the chains produced by Algorithm 1
// under every combination of cyclic reorderings — the leading set shifted
// pairwise (by two) through its q pair positions and every other set
// shifted channel-wise through its positions. Duplicate chains (equal
// partition sequences) are removed, preserving first-seen order.
func Derive(a Arrangement) ([]*core.Chain, error) {
	if len(a) == 0 {
		return nil, errors.New("partstrat: empty arrangement")
	}
	shiftCounts := make([]int, len(a))
	for i, s := range a {
		if i == 0 {
			shiftCounts[i] = s.Len() / 2 // pairwise shifts
		} else {
			shiftCounts[i] = s.Len()
		}
		if shiftCounts[i] == 0 {
			shiftCounts[i] = 1
		}
	}
	var (
		out  []*core.Chain
		seen = map[string]bool{}
	)
	shifts := make([]int, len(a))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(a) {
			arr := make(Arrangement, len(a))
			for j, s := range a {
				k := shifts[j]
				if j == 0 {
					k *= 2
				}
				arr[j] = s.rotated(k)
			}
			chain, err := arr.Partition()
			if err != nil {
				return err
			}
			key := chain.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, chain)
			}
			return nil
		}
		for shifts[i] = 0; shifts[i] < shiftCounts[i]; shifts[i]++ {
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	obsChainsDerive.Add(uint64(len(out)))
	return out, nil
}

// PairArrangements implements Arrangement 3 (Section 5.1): when the
// leading set has q VCs, its D-pairs can be re-organised in q! ways by
// pairing each positive channel with a different negative VC — e.g.
// {Y1+ Y1-, Y2+ Y2-} or {Y2+ Y1-, Y1+ Y2-}. Each returned set keeps the
// positive channels in VC order and permutes the negative partners, in
// lexicographic permutation order (the identity pairing first).
func PairArrangements(s Set) []Set {
	var pos, neg []channel.Class
	for _, c := range s.Channels {
		if c.Sign == channel.Plus {
			pos = append(pos, c)
		} else {
			neg = append(neg, c)
		}
	}
	if len(pos) != len(neg) {
		// Unbalanced sets keep their original ordering only.
		return []Set{s.clone()}
	}
	var out []Set
	perm := make([]int, len(neg))
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			ns := Set{Dim: s.Dim}
			for i, p := range pos {
				ns.Channels = append(ns.Channels, p, neg[perm[i]])
			}
			out = append(out, ns)
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	// The recursion above emits permutations in swap order; sort them
	// lexicographically by the resulting channel sequence for stable,
	// documented output.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Channels, out[j].Channels
		for k := range a {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// DeriveWithPairings runs Algorithm 2 over every Arrangement-3 pairing of
// the leading set, concatenating and de-duplicating the resulting chains.
func DeriveWithPairings(a Arrangement) ([]*core.Chain, error) {
	if len(a) == 0 {
		return nil, errors.New("partstrat: empty arrangement")
	}
	var out []*core.Chain
	seen := map[string]bool{}
	for _, lead := range PairArrangements(a[0]) {
		arr := append(Arrangement{lead}, a[1:]...)
		chains, err := Derive(arr)
		if err != nil {
			return nil, err
		}
		for _, c := range chains {
			key := c.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, c)
			}
		}
	}
	obsChainsPairings.Add(uint64(len(out)))
	return out, nil
}

// ExceptionalCase implements Section 5.2.2: with no virtual channels,
// channels can be divided into exactly two partitions neither of which
// covers a complete pair — one channel per dimension in PA, the opposite
// directions in PB. Exchanging channels between the partitions yields all
// 2^n options (n = number of dimensions); each is returned as a two-
// partition chain PA -> PB.
func ExceptionalCase(dims int) []*core.Chain {
	if dims < 1 || dims > 16 {
		panic(fmt.Sprintf("partstrat: ExceptionalCase dims %d out of range", dims))
	}
	out := make([]*core.Chain, 0, 1<<uint(dims))
	for mask := 0; mask < 1<<uint(dims); mask++ {
		var pa, pb []channel.Class
		for d := 0; d < dims; d++ {
			sa, sb := channel.Plus, channel.Minus
			if mask&(1<<uint(d)) != 0 {
				sa, sb = channel.Minus, channel.Plus
			}
			pa = append(pa, channel.New(channel.Dim(d), sa))
			pb = append(pb, channel.New(channel.Dim(d), sb))
		}
		chain := core.MustChain(
			core.MustPartition("PA", pa...),
			core.MustPartition("PB", pb...),
		)
		out = append(out, chain)
	}
	obsChainsExceptional.Add(uint64(len(out)))
	return out
}

// SplitLast returns a new chain in which every partition after the first is
// replaced by singleton partitions, one per channel in order
// (Section 5.3.2: increasing the number of partitions reduces
// adaptiveness). Splitting never violates Theorem 1 — sub-partitions of
// cycle-free partitions are cycle-free.
func SplitLast(c *core.Chain) *core.Chain {
	parts := []*core.Partition{c.Partitions()[0].WithName(autoName(0))}
	i := 1
	for _, p := range c.Partitions()[1:] {
		for _, cls := range p.Channels() {
			parts = append(parts, core.MustPartition(autoName(i), cls))
			i++
		}
	}
	obsChainsSplit.Inc()
	return core.MustChain(parts...)
}

// FullSplit returns the chain with every channel in its own singleton
// partition, in chain order — the deterministic-routing end of the
// spectrum (Table 3).
func FullSplit(c *core.Chain) *core.Chain {
	var parts []*core.Partition
	for _, cls := range c.Channels() {
		parts = append(parts, core.MustPartition(autoName(len(parts)), cls))
	}
	obsChainsSplit.Inc()
	return core.MustChain(parts...)
}

// MinFullyAdaptiveChain constructs the Section-4 minimum-channel fully
// adaptive design for an n-dimensional mesh: 2^(n-1) partitions, one per
// pair of merged orthants, each holding the complete pair of the last
// dimension plus one channel of every other dimension, with VC numbers
// chosen so all partitions are disjoint. The total channel count is
// (n+1) * 2^(n-1), matching core.MinChannelsFullyAdaptive.
//
// Partitions are emitted in Gray-code order over the sign vector of
// dimensions 0..n-2, so consecutive partitions differ in one region axis
// (the paper's "neighbouring regions" heuristic). For n = 2 this yields the
// DyXY design of Figure 7(b); for n = 3 a design equivalent to Figure 9(b).
func MinFullyAdaptiveChain(n int) (*core.Chain, error) {
	if n < 1 {
		return nil, fmt.Errorf("partstrat: dimension %d < 1", n)
	}
	if n > 8 {
		return nil, fmt.Errorf("partstrat: dimension %d too large (2^(n-1) partitions)", n)
	}
	numParts := 1 << uint(n-1)
	// vcNext[dim][signIndex] is the next VC number to hand out.
	vcNext := make([][2]int, n)
	for d := range vcNext {
		vcNext[d] = [2]int{1, 1}
	}
	var parts []*core.Partition
	for i := 0; i < numParts; i++ {
		gray := i ^ (i >> 1)
		var classes []channel.Class
		// One channel per leading dimension, direction from the Gray code.
		for d := 0; d < n-1; d++ {
			sign := channel.Plus
			si := 0
			if gray&(1<<uint(d)) != 0 {
				sign = channel.Minus
				si = 1
			}
			vc := vcNext[d][si]
			vcNext[d][si]++
			classes = append(classes, channel.NewVC(channel.Dim(d), sign, vc))
		}
		// The last dimension contributes its complete pair, fresh VC per
		// partition.
		last := channel.Dim(n - 1)
		vc := vcNext[n-1][0]
		vcNext[n-1][0]++
		classes = append(classes,
			channel.NewVC(last, channel.Plus, vc),
			channel.NewVC(last, channel.Minus, vc))
		p, err := core.NewPartition(autoName(i), classes...)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	chain, err := core.NewChain(parts...)
	if err == nil {
		obsChainsMinFull.Inc()
	}
	return chain, err
}

// VCRequirements returns the per-dimension VC counts used by
// MinFullyAdaptiveChain(n): 2^(n-2) for each of the first n-1 dimensions
// (1 when n < 2) and 2^(n-1) for the last.
func VCRequirements(n int) []int {
	out := make([]int, n)
	lead := 1
	if n >= 2 {
		lead = 1 << uint(n-2)
	}
	for d := 0; d < n-1; d++ {
		out[d] = lead
	}
	out[n-1] = 1 << uint(n-1)
	return out
}
