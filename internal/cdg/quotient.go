package cdg

import (
	"context"
	"slices"
	"sync"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/obs/trace"
	"ebda/internal/topology"
)

// This file decides a turn set on every mesh, or every torus, with sides
// ≥ 3 at once. A node's class is the tuple of its coordinates' local
// classes (below). A design's quotient Q has one node per (class,
// out-channel) pair and an edge a → b, labelled with a's link vector,
// wherever a channel a out of a node of one class may depend on a channel
// b out of its head. Every dependency edge of every such mesh maps onto a
// Q edge, and a cycle's link vectors sum to zero, so if Q has no closed
// walk of zero sum no such mesh has a cyclic CDG. On a torus, if every
// channel may continue straight, every channel lies on its own ring and
// the concrete engine's witness is the X+ ring through node 0. DESIGN.md
// §13 proves both and the exact channel and edge counts.

// quotientMaxDims bounds the dimensions the quotient serves. Q has 5^n
// classes, which past three dimensions costs more to decide than the
// meshes a request may name.
const quotientMaxDims = 3

// Local classes: an interior coordinate is even or odd; the low boundary
// is 0, so even; the high boundary has the parity of its side minus one.
// A wrapped side has no boundaries, only the two parities.
const (
	lcEven, lcOdd, lcLow, lcHighEven, lcHighOdd = 0, 1, 2, 3, 4
	numLocal                                    = 5
)

// localClass returns the local class of coordinate x on a side of s ≥ 3.
func localClass(x, s int, wrap bool) int {
	if wrap {
		return x & 1
	}
	switch x {
	case 0:
		return lcLow
	case s - 1:
		return lcHighEven + x&1
	}
	return x & 1
}

// steps[w][s][l] lists the local classes one step in sign s (0 for +, 1
// for −) leads to from local class l, on any side ≥ 3, unwrapped (w = 0)
// or wrapped (w = 1): these five neighbour pairs and their reverses are
// all a mesh has; a torus steps between parities, and its wrap step on an
// odd side goes even → even. Each list ascends, so Q's rows do, as the
// Graph's rows must.
var steps = [2][2][numLocal][]uint8{{
	{lcEven: {lcOdd, lcHighOdd}, lcOdd: {lcEven, lcHighEven}, lcLow: {lcOdd}},
	{lcEven: {lcOdd}, lcOdd: {lcEven, lcLow}, lcHighEven: {lcOdd}, lcHighOdd: {lcEven}},
}, {
	{lcEven: {lcEven, lcOdd}, lcOdd: {lcEven}},
	{lcEven: {lcEven, lcOdd}, lcOdd: {lcEven}},
}}

// group is one step of eachGroup: out-channel j, with signature sig, of
// class c, whose local classes are tail, in dimension d and sign s; head
// is the local class one step away in d, which makes class h.
type group struct {
	j, c, h, sig int
	tail         [quotientMaxDims]uint8
	d, s, head   int
}

// eachGroup walks Q's groups in one fixed order: every class (numbered by
// the base-5 digits of its local classes, base 2 when wrapped), every
// out-channel of it in the order bind stamps them (dimension, sign, VC)
// and every local class one step away. All channels of a mesh or torus
// in one group have the same successors.
func eachGroup(n int, wrap bool, vcs VCConfig, f func(group)) {
	base, w := numLocal, 0
	if wrap {
		base, w = 2, 1
	}
	pow := [quotientMaxDims + 1]int{1}
	for d := 0; d < n; d++ {
		pow[d+1] = pow[d] * base
	}
	var gr group
	for gr.c = 0; gr.c < pow[n]; gr.c++ {
		par := 0
		for d := 0; d < n; d++ {
			gr.tail[d] = uint8(gr.c / pow[d] % base)
			if gr.tail[d] == lcOdd || gr.tail[d] == lcHighOdd {
				par |= 1 << d
			}
		}
		slot := 0 // (dimension, sign, VC), numbered as build's signatures
		for gr.d = 0; gr.d < n; gr.d++ {
			vc := vcs.VCs(channel.Dim(gr.d))
			for gr.s = 0; gr.s < 2; gr.s, slot = gr.s+1, slot+vc {
				// No step, no channel: nothing leaves across a boundary.
				heads := steps[w][gr.s][gr.tail[gr.d]]
				for v := 0; v < vc && len(heads) > 0; v++ {
					gr.sig = (slot+v)<<n | par
					for _, head := range heads {
						gr.head = int(head)
						gr.h = gr.c + (gr.head-int(gr.tail[gr.d]))*pow[gr.d]
						f(gr)
					}
					gr.j++
				}
			}
		}
	}
}

// quotient is a design's size-free verdict. decided means acyclic on
// every mesh, and on every torus that every channel may continue
// straight, so cyclic. When decided, weights[i] is the successor count of
// every channel in the i-th group of eachGroup.
type quotient struct {
	decided bool
	weights []uint8
}

// counts returns the design's channel and dependency counts on the mesh
// or torus with the given sides. A group's channels number the product of
// the other dimensions' class multiplicities and its dimension's
// neighbour-pair multiplicity; each has the group's weight in successors.
//
//ebda:hotpath
func (q *quotient) counts(wrap bool, vcs VCConfig, sizes []int) (channels, edges int) {
	var m [quotientMaxDims][numLocal]int
	var pairs [quotientMaxDims][numLocal][numLocal]int // x → x+1, wrapping
	for d, s := range sizes {
		for x := 0; x < s; x++ {
			m[d][localClass(x, s, wrap)]++
			if x+1 < s || wrap {
				pairs[d][localClass(x, s, wrap)][localClass((x+1)%s, s, wrap)]++
			}
		}
	}
	i := 0
	eachGroup(len(sizes), wrap, vcs, func(gr group) {
		n := pairs[gr.d][gr.tail[gr.d]][gr.head]
		if gr.s == 1 {
			n = pairs[gr.d][gr.head][gr.tail[gr.d]]
		}
		for e := range sizes {
			if e != gr.d {
				n *= m[e][gr.tail[e]]
			}
		}
		channels += n
		edges += n * int(q.weights[i])
		i++
	})
	return channels, edges
}

// quotientServes reports whether the quotient can answer for net and
// vcs: a regular mesh or torus of at most quotientMaxDims dimensions,
// every side ≥ 3, whose nodes have at most 255 out-channels (a weight is
// a byte).
func quotientServes(net *topology.Network, vcs VCConfig) bool {
	if !net.Regular() || net.Dims() > quotientMaxDims {
		return false
	}
	out := 0
	for d, s := range net.Sizes() {
		if s < 3 || net.Wrap(channel.Dim(d)) != net.Wrap(channel.X) {
			return false
		}
		out += 2 * vcs.VCs(channel.Dim(d))
	}
	return out <= 255
}

// quotientReport answers a verification of a network quotientServes from
// the design's quotient. ok is false when the quotient leaves the design
// undecided; the caller builds the concrete graph then.
//
//ebda:hotpath
func quotientReport(ctx context.Context, net *topology.Network, vcs VCConfig, ts *core.TurnSet) (rep Report, ok bool) {
	sp := trace.FromContext(ctx).StartSpan("cdg.quotient")
	ph := phaseQuotient.Start()
	wrap := net.Wrap(channel.X)
	q := quotientOf(ctx, net.Dims(), wrap, vcs, ts)
	ph.End()
	if !q.decided {
		sp.SetInt("decided", 0)
		sp.End()
		obsQuotientUndecided.Inc()
		return Report{}, false
	}
	sp.SetInt("decided", 1)
	sp.End()
	obsQuotientAnswers.Inc()
	channels, edges := q.counts(wrap, vcs, net.Sizes())
	rep = Report{Network: net.String(), Channels: channels, Edges: edges, Acyclic: !wrap}
	if wrap {
		rep.Cycle = xRing(net, channels/net.Nodes())
	}
	return rep, true
}

// xRing returns the cycle the concrete engine reports for a torus design
// whose every channel may continue straight: the peel removes nothing, the
// residual DFS starts at channel 0, node 0's X+ VC 1, and each channel's
// lowest successor is its straight continuation, the first out-channel of
// its head. So it is the X+ VC-1 ring through node 0, node x's channel
// being index x·per.
func xRing(net *topology.Network, per int) []Channel {
	s := net.Size(channel.X)
	cyc := make([]Channel, s)
	for x := range cyc {
		cyc[x] = Channel{Link: topology.Link{
			From: topology.NodeID(x), To: topology.NodeID((x + 1) % s), Dim: channel.X, Sign: channel.Plus,
			Wrap: x == s-1,
		}, VC: 1, Index: x * per}
	}
	return cyc
}

// quotients caches verdicts, undecided ones too, under quotientKey: the
// dimension count, whether the sides wrap, the VC counts and the turn
// set's fingerprint, no sizes.
var quotients = &Cache[quotient]{}

var quotientBuilders = sync.Pool{New: func() any { return new(quotientBuilder) }}

func quotientKey(n int, wrap bool, vcs VCConfig, ts *core.TurnSet) (key, check uint64) {
	h := dualHash{0x243f6a8885a308d3, 0x13198a2e03707344}
	w := uint64(0)
	if wrap {
		w = 1
	}
	h.put(uint64(n)<<1 | w)
	for d := 0; d < n; d++ {
		h.put(uint64(vcs.VCs(channel.Dim(d))))
	}
	f1, f2 := ts.Fingerprint()
	h.put(f1)
	h.put(f2)
	return h.a, h.b
}

// quotientOf returns the design's quotient verdict, building it on a
// cache miss. It looks up before it builds a Query, whose closure would
// cost every hit an allocation.
//
//ebda:hotpath
func quotientOf(ctx context.Context, n int, wrap bool, vcs VCConfig, ts *core.TurnSet) quotient {
	key, check := quotientKey(n, wrap, vcs, ts)
	if q, ok := quotients.Lookup(key, check); ok {
		return q
	}
	q, _ := quotients.Verify(ctx, Query[quotient]{Key: key, Check: check, compute: func(context.Context) (quotient, error) {
		b := quotientBuilders.Get().(*quotientBuilder)
		defer quotientBuilders.Put(b)
		return b.build(n, wrap, vcs, ts), nil
	}})
	return q
}

// quotientBuilder is the scratch of one quotient build: Q as a Graph with
// no nodes, whose channels are the slots of its class templates.
type quotientBuilder struct {
	g       Graph
	weights []uint8
}

// build enumerates Q and decides it. Class c's template is its
// out-channels, and the turn-edge kernel's pattern of one against a class
// one step away is the group's successors: its Q edges and its weight. On
// a torus every class has every out-channel in the same slot, and the
// design is decided when each group's successors hold its own slot.
func (b *quotientBuilder) build(n int, wrap bool, vcs VCConfig, ts *core.TurnSet) quotient {
	g := &b.g
	g.sigs = g.sigs[:0]
	for d := 0; d < n; d++ {
		for _, sign := range [2]channel.Sign{channel.Plus, channel.Minus} {
			for vc := 1; vc <= vcs.VCs(channel.Dim(d)); vc++ {
				for par := 0; par < 1<<n; par++ {
					g.sigs = append(g.sigs, sigInfo{dim: channel.Dim(d), sign: sign, vc: vc, par: par})
				}
			}
		}
	}
	g.tplOff, g.tplSig = g.tplOff[:0], g.tplSig[:0]
	eachGroup(n, wrap, vcs, func(gr group) {
		if gr.c == len(g.tplOff) {
			g.tplOff = append(g.tplOff, int32(gr.j))
		}
		if gr.j == len(g.tplSig) {
			g.tplSig = append(g.tplSig, int32(gr.sig))
		}
	})
	// The class table's keys are never read here, only counted.
	g.classes.keys = slices.Grow(g.classes.keys[:0], len(g.tplOff))[:len(g.tplOff)]
	g.tplOff = append(g.tplOff, int32(len(g.tplSig)))
	g.sig = append(g.sig[:0], g.tplSig...)
	ts.MatrixInto(&g.mat)
	g.buildSigTable(&g.mat)
	g.adj.reset(len(g.sig))
	b.weights = b.weights[:0]
	straight := true
	eachGroup(n, wrap, vcs, func(gr group) {
		offs := g.allowed(int32(gr.sig), int32(gr.h))
		b.weights = append(b.weights, uint8(len(offs)))
		if wrap {
			_, ok := slices.BinarySearch(offs, int32(gr.j)-g.tplOff[gr.c])
			straight = straight && ok
			return
		}
		for len(g.adj.off) <= gr.j {
			g.adj.closeRow()
		}
		for _, o := range offs {
			g.adj.succ = append(g.adj.succ, g.tplOff[gr.h]+o)
		}
	})
	for len(g.adj.off) <= g.adj.n {
		g.adj.closeRow()
	}
	decided := straight
	if !wrap {
		decided = b.decide(n)
	}
	if !decided {
		return quotient{}
	}
	return quotient{decided: true, weights: slices.Clone(b.weights)}
}

// decide runs sign pruning over Q and reports whether no edge survives,
// so that Q has no closed walk of zero link-vector sum. Each round keeps
// an edge only inside a cyclic component in which its dimension runs both
// ways. A zero-sum closed walk lies in one component and, using one sign
// of a dimension, uses the other too, so it loses no edge. Nor does a
// component in which every dimension runs both ways: the first such
// component, or a round that removes nothing, leaves the design
// undecided.
func (b *quotientBuilder) decide(n int) bool {
	g := &b.g
	comp := make([]int, len(g.sig))
	for len(g.adj.succ) > 0 {
		// comp[v] numbers v's cyclic component from 1 (0: none); mask
		// holds a component's signs per dimension, bit 0 + and bit 1 −.
		sccs := g.SCCs()
		clear(comp)
		for i, scc := range sccs {
			for _, v := range scc {
				comp[v] = i + 1
			}
		}
		mask := make([]uint8, (len(sccs)+1)*n)
		inner := func(v int, w int32) *uint8 {
			if comp[v] == 0 || comp[w] != comp[v] {
				return nil
			}
			return &mask[comp[v]*n+int(g.sigs[g.sig[v]].dim)]
		}
		for v := range comp {
			for _, w := range g.adj.row(int32(v)) {
				if m := inner(v, w); m != nil {
					*m |= 1 << ((1 - g.sigs[g.sig[v]].sign) / 2)
				}
			}
		}
		for c := n; c < len(mask); c += n {
			if !slices.ContainsFunc(mask[c:c+n], func(m uint8) bool { return m == 1 || m == 2 }) {
				return false
			}
		}
		k, lo := int32(0), int32(0)
		for v := range comp {
			hi := g.adj.off[v+1]
			for _, w := range g.adj.succ[lo:hi] {
				if m := inner(v, w); m != nil && *m == 3 {
					g.adj.succ[k] = w
					k++
				}
			}
			lo, g.adj.off[v+1] = hi, k
		}
		if int(k) == len(g.adj.succ) {
			return false
		}
		g.adj.succ = g.adj.succ[:k]
	}
	return true
}
