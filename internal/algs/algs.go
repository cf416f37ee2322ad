// Package algs is the one table of named routing algorithms that the
// commands accept: ebda-verify deadlock -alg, ebda-sim -algs and
// ebda-draw -alg. A name resolves to the algorithm and the per-dimension
// VC counts it needs on a network. It sits above internal/routing and
// internal/duato, since duato imports routing.
package algs

import (
	"fmt"
	"strings"

	"ebda/internal/core"
	"ebda/internal/duato"
	"ebda/internal/routing"
	"ebda/internal/topology"
)

// entry is one algorithm: its names (the first is the primary one) and
// its constructor, which returns the algorithm and its VC vector (nil for
// one VC per dimension).
type entry struct {
	names []string
	build func(net *topology.Network) (routing.Algorithm, []int)
}

// table lists every named algorithm in the order Names reports them.
var table = []entry{
	{[]string{"xy"}, func(*topology.Network) (routing.Algorithm, []int) { return routing.NewXY(), nil }},
	{[]string{"yx"}, func(*topology.Network) (routing.Algorithm, []int) { return routing.NewYX(), nil }},
	{[]string{"west-first", "wf"}, func(*topology.Network) (routing.Algorithm, []int) { return routing.NewWestFirst(), nil }},
	{[]string{"north-last", "nl"}, func(*topology.Network) (routing.Algorithm, []int) { return routing.NewNorthLast(), nil }},
	{[]string{"negative-first", "nf"}, func(*topology.Network) (routing.Algorithm, []int) { return routing.NewNegativeFirst(), nil }},
	{[]string{"odd-even", "oe"}, func(*topology.Network) (routing.Algorithm, []int) { return routing.NewOddEven(), nil }},
	{[]string{"dyxy", "ebda", "ebda-6ch"}, func(net *topology.Network) (routing.Algorithm, []int) {
		fc := routing.NewFromChain("ebda-6ch", core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"), net.Dims())
		return fc, fc.VCs()
	}},
	{[]string{"planar", "planar-adaptive"}, func(net *topology.Network) (routing.Algorithm, []int) {
		p := routing.NewPlanarAdaptive()
		return p, p.VCsPerDim(net)
	}},
	{[]string{"duato"}, func(net *topology.Network) (routing.Algorithm, []int) {
		d := duato.New()
		return d, d.VCsPerDim(net)
	}},
	{[]string{"duato-torus"}, func(net *topology.Network) (routing.Algorithm, []int) {
		d := duato.NewTorus()
		return d, d.VCsPerDim(net)
	}},
	{[]string{"dateline"}, func(net *topology.Network) (routing.Algorithm, []int) {
		d := routing.NewDatelineTorus()
		return d, d.VCsPerDim(net)
	}},
	{[]string{"unrestricted"}, func(*topology.Network) (routing.Algorithm, []int) { return routing.NewUnrestricted(), nil }},
}

// ByName builds the algorithm a name (primary or alias) stands for on a
// network, with its per-dimension VC counts.
func ByName(name string, net *topology.Network) (routing.Algorithm, []int, error) {
	for _, e := range table {
		for _, n := range e.names {
			if n == name {
				alg, vcs := e.build(net)
				return alg, vcs, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("unknown algorithm %q", name)
}

// Names returns every accepted name, aliases included, in table order.
func Names() []string {
	var out []string
	for _, e := range table {
		out = append(out, e.names...)
	}
	return out
}

// Usage lists the primary names, comma-separated, for flag help.
func Usage() string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.names[0]
	}
	return strings.Join(names, ", ")
}
