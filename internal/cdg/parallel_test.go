package cdg

import (
	"reflect"
	"slices"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// xyRoute is dimension-order routing as a RoutingRelation: correct the
// lowest unaligned dimension on VC 1.
func xyRoute(g *Graph, at topology.NodeID, in *Channel, dst topology.NodeID) []int {
	offs := g.Net().MinimalOffsets(at, dst)
	for d := 0; d < g.Net().Dims(); d++ {
		off := offs[d]
		if off == 0 {
			continue
		}
		sign := channel.Plus
		if off < 0 {
			sign = channel.Minus
		}
		if ch, ok := g.FindChannel(at, channel.Dim(d), sign, 1); ok {
			return []int{ch.Index}
		}
		return nil
	}
	return nil
}

// addRoutingEdgesReference is the obvious map-based construction the
// bitset implementation must reproduce exactly.
func addRoutingEdgesReference(g *Graph, route RoutingRelation) map[[2]int32]bool {
	edges := map[[2]int32]bool{}
	nodes := g.Net().Nodes()
	for dst := topology.NodeID(0); int(dst) < nodes; dst++ {
		usable := make([]bool, g.NumChannels())
		var queue []int32
		for src := topology.NodeID(0); int(src) < nodes; src++ {
			if src == dst {
				continue
			}
			for _, bi := range route(g, src, nil, dst) {
				if !usable[bi] {
					usable[bi] = true
					queue = append(queue, int32(bi))
				}
			}
		}
		for len(queue) > 0 {
			ai := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ch := g.Channel(int(ai))
			if ch.Link.To == dst {
				continue
			}
			for _, bi := range route(g, ch.Link.To, &ch, dst) {
				edges[[2]int32{ai, int32(bi)}] = true
				if !usable[bi] {
					usable[bi] = true
					queue = append(queue, int32(bi))
				}
			}
		}
	}
	return edges
}

// requireIdentical asserts two graphs have bit-identical adjacency.
func requireIdentical(t *testing.T, want, got *Graph, label string) {
	t.Helper()
	if want.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: edges = %d, want %d", label, got.NumEdges(), want.NumEdges())
	}
	for i := 0; i < want.NumChannels(); i++ {
		if !slices.Equal(want.Succs(i), got.Succs(i)) {
			t.Fatalf("%s: adjacency of channel %d differs: %v vs %v",
				label, i, want.Succs(i), got.Succs(i))
		}
	}
}

// parityTurnSet mixes plain and parity-restricted classes so the interned
// matrix path sees every class kind (odd-even turn model flavour).
func parityTurnSet() *core.TurnSet {
	ts := core.NewTurnSet()
	e, w := channel.New(channel.X, channel.Plus), channel.New(channel.X, channel.Minus)
	nOdd := channel.NewParity(channel.Y, channel.Plus, channel.X, channel.Odd)
	nEven := channel.NewParity(channel.Y, channel.Plus, channel.X, channel.Even)
	s := channel.New(channel.Y, channel.Minus)
	ts.Add(e, nOdd, core.ByTheorem3)
	ts.Add(w, nEven, core.ByTheorem3)
	ts.Add(e, s, core.ByTheorem3)
	ts.Add(nEven, e, core.ByTheorem3)
	return ts
}

// benchJobs are the values bench/ passes to the signatures it keeps
// calling; their int argument is ignored, so every answer must equal the
// jobless entry point's.
var benchJobs = []int{0, 1}

func TestAddTurnEdgesJobsDeterministic(t *testing.T) {
	nets := []*topology.Network{
		topology.NewMesh(5, 4),
		topology.NewTorus(4, 4),
	}
	sets := map[string]*core.TurnSet{
		"xy":     xyTurnSet(),
		"all":    allTurnSet(),
		"parity": parityTurnSet(),
	}
	for _, net := range nets {
		for name, ts := range sets {
			ref := BuildFromTurnSet(net, nil, ts)
			for _, jobs := range benchJobs {
				requireIdentical(t, ref, BuildFromTurnSetJobs(net, nil, ts, jobs), net.String()+"/"+name)
			}
		}
	}
}

func TestAddRoutingEdgesMatchesReference(t *testing.T) {
	for _, net := range []*topology.Network{
		topology.NewMesh(5, 4),
		topology.NewMesh(3, 3, 3),
	} {
		g := NewGraph(net, nil)
		g.AddRoutingEdges(xyRoute)
		want := addRoutingEdgesReference(NewGraph(net, nil), xyRoute)
		if g.NumEdges() != len(want) {
			t.Fatalf("%s: edges = %d, reference has %d", net, g.NumEdges(), len(want))
		}
		for e := range want {
			if !g.HasEdge(int(e[0]), int(e[1])) {
				t.Fatalf("%s: reference edge %v missing from the build", net, e)
			}
		}
	}
}

// TestFindCycleAgreesWithReferenceDFS: the Kahn peel must agree with the
// reference three-colour DFS and with Tarjan's SCCs on acyclicity, any
// cycle it reports must be genuine (consecutive channels meet head-to-tail
// and every hop is a real dependency edge) and lie inside one SCC, and the
// bench aliases must answer exactly as Acyclic and FindCycle.
func TestFindCycleAgreesWithReferenceDFS(t *testing.T) {
	nets := []*topology.Network{
		topology.NewMesh(4, 4),
		topology.NewMesh(3, 3, 3),
		topology.NewTorus(4, 4),
	}
	sets := map[string]*core.TurnSet{
		"xy": xyTurnSet(), "all": allTurnSet(), "parity": parityTurnSet(),
	}
	for _, net := range nets {
		for name, ts := range sets {
			g := BuildFromTurnSet(net, nil, ts)
			ref := referenceFindCycle(g)
			cyc := g.FindCycle()
			if (cyc == nil) != (ref == nil) {
				t.Fatalf("%s/%s: FindCycle nil=%v, reference DFS nil=%v",
					net, name, cyc == nil, ref == nil)
			}
			if g.Acyclic() != (ref == nil) {
				t.Fatalf("%s/%s: Acyclic disagrees with the reference DFS", net, name)
			}
			sccs := g.SCCs()
			if (len(sccs) == 0) != g.Acyclic() {
				t.Fatalf("%s/%s: %d SCCs, Acyclic=%v", net, name, len(sccs), g.Acyclic())
			}
			if g.AcyclicJobs(0) != g.Acyclic() || !reflect.DeepEqual(g.FindCycleJobs(0), cyc) {
				t.Fatalf("%s/%s: bench aliases disagree with Acyclic/FindCycle", net, name)
			}
			for i, c := range cyc {
				next := cyc[(i+1)%len(cyc)]
				if c.Link.To != next.Link.From {
					t.Fatalf("%s/%s: cycle breaks at %d: %v", net, name, i, cyc)
				}
				if !g.HasEdge(c.Index, next.Index) {
					t.Fatalf("%s/%s: cycle hop %d is not an edge", net, name, i)
				}
			}
			if cyc != nil {
				comp := -1
				for k, scc := range sccs {
					if slices.Contains(scc, cyc[0].Index) {
						comp = k
					}
				}
				for _, c := range cyc {
					if comp < 0 || !slices.Contains(sccs[comp], c.Index) {
						t.Fatalf("%s/%s: cycle channel %v outside the SCC of %v", net, name, c, cyc[0])
					}
				}
			}
		}
	}
}

// TestVerifyReportJobsInvariant asserts the full public report — including
// the extracted cycle on cyclic inputs — that VerifyTurnSetJobs returns
// for the values bench/ passes is the one VerifyTurnSet returns.
func TestVerifyReportJobsInvariant(t *testing.T) {
	for _, net := range []*topology.Network{
		topology.NewMesh(5, 4),
		topology.NewTorus(4, 4),
	} {
		for name, ts := range map[string]*core.TurnSet{
			"acyclic": xyTurnSet(), "cyclic": allTurnSet(), "parity": parityTurnSet(),
		} {
			want := VerifyTurnSet(net, nil, ts)
			for _, jobs := range benchJobs {
				if got := VerifyTurnSetJobs(net, nil, ts, jobs); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s jobs=%d: %+v, want %+v", net, name, jobs, got, want)
				}
			}
		}
	}
}

func TestFindChannelAndHasEdge(t *testing.T) {
	net := topology.NewMesh(4, 3)
	g := NewGraph(net, Uniform(2, 2))
	// Every channel must be findable at its own coordinates.
	for i := 0; i < g.NumChannels(); i++ {
		ch := g.Channel(i)
		got, ok := g.FindChannel(ch.Link.From, ch.Link.Dim, ch.Link.Sign, ch.VC)
		if !ok || got.Index != ch.Index {
			t.Fatalf("FindChannel lost channel %v", ch)
		}
	}
	// Mesh edges have no wraparound channel; out-of-range queries are safe.
	if _, ok := g.FindChannel(0, channel.X, channel.Minus, 1); ok {
		t.Error("mesh corner must have no X- channel")
	}
	if _, ok := g.FindChannel(0, channel.X, channel.Plus, 3); ok {
		t.Error("VC beyond the configuration must not resolve")
	}
	if _, ok := g.FindChannel(0, channel.Dim(5), channel.Plus, 1); ok {
		t.Error("dimension beyond the network must not resolve")
	}
	// HasEdge agrees with the successor lists after out-of-order inserts.
	g.AddEdge(5, 9)
	g.AddEdge(5, 2)
	g.AddEdge(5, 7)
	if want := []int32{2, 7, 9}; !reflect.DeepEqual(g.Succs(5), want) {
		t.Fatalf("Succs(5) = %v, want %v", g.Succs(5), want)
	}
	for _, to := range []int{2, 7, 9} {
		if !g.HasEdge(5, to) {
			t.Errorf("HasEdge(5, %d) = false", to)
		}
	}
	if g.HasEdge(5, 8) || g.HasEdge(4, 2) {
		t.Error("HasEdge invented an edge")
	}
}
