// Package algs is the one table of named routing algorithms that the
// commands accept: ebda-verify deadlock -alg, ebda-sim -algs and
// ebda-draw -alg. A name resolves to the algorithm and the per-dimension
// VC counts it needs on a network. It sits above internal/routing and
// internal/duato, since duato imports routing.
package algs

import (
	"fmt"
	"slices"
	"strings"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/duato"
	"ebda/internal/routing"
	"ebda/internal/topology"
)

// entry is one algorithm: its names (the first is the primary one), its
// constructor, which returns the algorithm and its VC vector (nil for one
// VC per dimension), and whether it needs wraparound links in every
// dimension. Such an algorithm routes only over them, so on a network
// without them it would route nothing and verify vacuously.
type entry struct {
	names   []string
	build   func(net *topology.Network) (routing.Algorithm, []int)
	wrapAll bool
}

// table lists every named algorithm in the order Names reports them.
var table = []entry{
	{names: []string{"xy"}, build: func(*topology.Network) (routing.Algorithm, []int) { return routing.NewXY(), nil }},
	{names: []string{"yx"}, build: func(*topology.Network) (routing.Algorithm, []int) { return routing.NewYX(), nil }},
	{names: []string{"west-first", "wf"}, build: func(*topology.Network) (routing.Algorithm, []int) { return routing.NewWestFirst(), nil }},
	{names: []string{"north-last", "nl"}, build: func(*topology.Network) (routing.Algorithm, []int) { return routing.NewNorthLast(), nil }},
	{names: []string{"negative-first", "nf"}, build: func(*topology.Network) (routing.Algorithm, []int) { return routing.NewNegativeFirst(), nil }},
	{names: []string{"odd-even", "oe"}, build: func(*topology.Network) (routing.Algorithm, []int) { return routing.NewOddEven(), nil }},
	{names: []string{"dyxy", "ebda", "ebda-6ch"}, build: func(net *topology.Network) (routing.Algorithm, []int) {
		fc := routing.NewFromChain("ebda-6ch", core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"), net.Dims())
		return fc, fc.VCs()
	}},
	{names: []string{"planar", "planar-adaptive"}, build: func(net *topology.Network) (routing.Algorithm, []int) {
		p := routing.NewPlanarAdaptive()
		return p, p.VCsPerDim(net)
	}},
	{names: []string{"duato"}, build: func(net *topology.Network) (routing.Algorithm, []int) {
		d := duato.New()
		return d, d.VCsPerDim(net)
	}},
	{names: []string{"duato-torus"}, build: func(net *topology.Network) (routing.Algorithm, []int) {
		d := duato.NewTorus()
		return d, d.VCsPerDim(net)
	}},
	{names: []string{"dateline"}, wrapAll: true, build: func(net *topology.Network) (routing.Algorithm, []int) {
		d := routing.NewDatelineTorus()
		return d, d.VCsPerDim(net)
	}},
	{names: []string{"unrestricted"}, build: func(*topology.Network) (routing.Algorithm, []int) { return routing.NewUnrestricted(), nil }},
}

// ByName builds the algorithm a name (primary or alias) stands for on a
// network, with its per-dimension VC counts. An algorithm that needs
// wraparound links is an error on a network that lacks them.
func ByName(name string, net *topology.Network) (routing.Algorithm, []int, error) {
	for _, e := range table {
		if !slices.Contains(e.names, name) {
			continue
		}
		for d := range net.Dims() {
			if e.wrapAll && !net.Wrap(channel.Dim(d)) {
				return nil, nil, fmt.Errorf("algorithm %q routes only over wraparound links and needs them in every dimension; %s has none in %s",
					name, net, channel.Dim(d))
			}
		}
		alg, vcs := e.build(net)
		return alg, vcs, nil
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
