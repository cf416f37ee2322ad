package cdg

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// addTurnEdgesReference is the per-channel turn-edge construction the
// signature table replaced, kept as an independent oracle: every channel
// lists the matrix classes it instantiates (parities read from net.Coord,
// not from the graph's signature tables), and every channel pair at a node
// asks AllowsAny of the two lists. Edges go in one AddEdge at a time, so
// a second build on a filled graph inserts into sorted rows.
func addTurnEdgesReference(g *Graph, ts *core.TurnSet) int {
	m := ts.Matrix()
	matched := make([][]int32, g.NumChannels())
	for i := range matched {
		ch := g.Channel(i)
		coord := g.net.Coord(ch.Link.From)
		for k, cls := range m.Classes() {
			if cls.Dim != ch.Link.Dim || cls.Sign != ch.Link.Sign || cls.VC != ch.VC {
				continue
			}
			if cls.Par != channel.Any && !cls.Par.Matches(coord[cls.PDim]) {
				continue
			}
			matched[i] = append(matched[i], int32(k))
		}
	}
	added := 0
	for ai := range matched {
		lo, hi := g.outRange(g.Channel(ai).Link.To)
		for bi := lo; bi < hi; bi++ {
			if m.AllowsAny(matched[ai], matched[bi]) {
				g.AddEdge(ai, int(bi))
				added++
			}
		}
	}
	return added
}

// referenceReport verifies ts on a fresh graph built by the oracle.
func referenceReport(net *topology.Network, vcs VCConfig, ts *core.TurnSet) Report {
	ref := &Workspace{g: NewGraph(net, vcs)}
	addTurnEdgesReference(ref.g, ts)
	rep, _ := ref.report(context.Background())
	return rep
}

// oracleClasses draws the class alphabet of a random design: every
// (dim, sign, VC) of the configuration, some split Odd-Even style into
// parity classes on another dimension (Ye/Yo), some kept whole beside
// their split so a channel can instantiate several classes, and now and
// then a VC the configuration lacks (a class no channel instantiates).
func oracleClasses(rng *rand.Rand, dims int, vcs VCConfig) []channel.Class {
	var out []channel.Class
	for d := 0; d < dims; d++ {
		for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
			for vc := 1; vc <= vcs.VCs(channel.Dim(d)); vc++ {
				plain := channel.NewVC(channel.Dim(d), sign, vc)
				switch rng.Intn(4) {
				case 0, 1:
					out = append(out, plain)
				default:
					pd := channel.Dim((d + 1 + rng.Intn(dims-1)) % dims)
					for _, par := range []channel.Parity{channel.Even, channel.Odd} {
						c := channel.NewParity(channel.Dim(d), sign, pd, par)
						c.VC = vc
						out = append(out, c)
					}
					if rng.Intn(3) == 0 {
						out = append(out, plain)
					}
				}
			}
		}
	}
	if rng.Intn(4) == 0 {
		out = append(out, channel.NewVC(channel.X, channel.Plus, vcs.VCs(channel.X)+1))
	}
	return out
}

// oracleTurnSet draws a random relation over the classes: mostly
// 90-degree turns, sometimes same-dimension transitions (U-turns and VC
// changes), sparse or dense.
func oracleTurnSet(rng *rand.Rand, classes []channel.Class) *core.TurnSet {
	p := []float64{0.15, 0.4, 0.8}[rng.Intn(3)]
	ts := core.NewTurnSet()
	for _, c := range classes {
		ts.Declare(c)
	}
	for _, a := range classes {
		for _, b := range classes {
			q := p
			if a.Dim == b.Dim {
				q = p / 4
			}
			if a != b && rng.Float64() < q {
				ts.Add(a, b, core.ByTheorem1)
			}
		}
	}
	return ts
}

// oracleNetwork draws a 2D or 3D mesh, torus, irregular mesh, partially
// connected 3D mesh, or a faulty copy of one of those.
func oracleNetwork(rng *rand.Rand) *topology.Network {
	dims := 2 + rng.Intn(2)
	sizes := make([]int, dims)
	for d := range sizes {
		sizes[d] = 2 + rng.Intn(7-2*(dims-2))
	}
	var net *topology.Network
	switch rng.Intn(4) {
	case 0:
		net = topology.NewMesh(sizes...)
	case 1:
		net = topology.NewTorus(sizes...)
	case 2:
		salt := rng.Int()
		net = topology.NewIrregular("irregular", sizes, func(from topology.Coord, d channel.Dim, s channel.Sign) bool {
			h := salt
			for _, x := range from {
				h = h*31 + x
			}
			return (h+int(d)*7+int(s)*3)%5 != 0
		})
	default:
		x, y := 2+rng.Intn(4), 2+rng.Intn(4)
		net = topology.NewPartialMesh3D(x, y, 2+rng.Intn(3), [][2]int{{rng.Intn(x), rng.Intn(y)}, {0, 0}})
	}
	if rng.Intn(3) == 0 {
		links := net.Links()
		var faults []topology.Link
		for i := 0; i < 1+rng.Intn(3) && len(links) > 0; i++ {
			faults = append(faults, links[rng.Intn(len(links))])
		}
		net = net.WithoutLinks(faults)
	}
	return net
}

// TestTurnEdgesMatchOracle holds the class kernel against the
// per-channel oracle on seeded random designs: 2D and 3D meshes, tori,
// irregular, partially connected and faulty networks; 1-3 VCs per
// dimension; parity-restricted classes on another dimension; and a
// second build on the filled graph, which takes the merge path. Two 5D
// tori with 7-8 VCs per dimension follow, one faulty, whose nodes have
// up to 76 out-channels, so an offset list is wider than any 64-bit mask;
// they skip the merge build, whose oracle is quadratic in the edges.
// Rows, edge counts and reports must be identical.
func TestTurnEdgesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var parity, cyclic, acyclic int
	check := func(label string, net *topology.Network, vcs VCConfig, classes []channel.Class, merge bool) {
		t.Helper()
		for _, c := range classes {
			if c.Par != channel.Any {
				parity++
				break
			}
		}
		ts, ts2 := oracleTurnSet(rng, classes), oracleTurnSet(rng, classes)
		label = fmt.Sprintf("%s (%s, vcs %v)", label, net, vcs)

		want := NewGraph(net, vcs)
		wantAdded := addTurnEdgesReference(want, ts)
		wantRep := referenceReport(net, vcs, ts)
		g := NewGraph(net, vcs)
		if added := g.AddTurnEdges(ts); added != wantAdded {
			t.Fatalf("%s: added %d, oracle %d", label, added, wantAdded)
		}
		requireIdentical(t, want, g, label)
		if merge {
			// The oracle inserts into sorted rows, quadratic in the edges.
			want2 := NewGraph(net, vcs)
			addTurnEdgesReference(want2, ts)
			wantMerged := addTurnEdgesReference(want2, ts2)
			if added := g.AddTurnEdges(ts2); added != wantMerged {
				t.Fatalf("%s: merge added %d, oracle %d", label, added, wantMerged)
			}
			requireIdentical(t, want2, g, label+" merge")
		}
		if rep := NewWorkspace(net, vcs).VerifyTurnSet(ts); !reflect.DeepEqual(rep, wantRep) {
			t.Fatalf("%s: report %s, oracle %s", label, rep, wantRep)
		}
		if wantRep.Acyclic {
			acyclic++
		} else {
			cyclic++
		}
	}
	for step := 0; step < 60; step++ {
		net := oracleNetwork(rng)
		vcs := make(VCConfig, net.Dims())
		for d := range vcs {
			vcs[d] = 1 + rng.Intn(3)
		}
		check(fmt.Sprintf("step %d", step), net, vcs, oracleClasses(rng, net.Dims(), vcs), true)
	}
	wide := []*topology.Network{
		topology.NewTorus(2, 2, 2, 2, 2),
		topology.NewTorus(3, 2, 2, 2, 2).WithoutLinks([]topology.Link{
			{From: 4, Dim: channel.X, Sign: channel.Plus},
			{From: 4, Dim: channel.Dim(4), Sign: channel.Plus},
		}),
	}
	for i, net := range wide {
		vcs := VCConfig{8, 7, 8, 7, 8}
		g := NewGraph(net, vcs)
		widest := int32(0)
		for v := 0; v < net.Nodes(); v++ {
			widest = max(widest, g.tailOff[v+1]-g.tailOff[v])
		}
		if widest <= 64 {
			t.Fatalf("%s: widest node has %d out-channels, want more than 64", net, widest)
		}
		check(fmt.Sprintf("wide %d", i), net, vcs, oracleClasses(rng, net.Dims(), vcs), false)
	}
	if parity == 0 || cyclic == 0 || acyclic == 0 {
		t.Errorf("sequence missed a case: %d parity designs, %d cyclic, %d acyclic", parity, cyclic, acyclic)
	}
}

// TestDeltaTogglesMatchOracle holds delta turn toggles, which rebuild
// the toggled design through the turn-edge kernel, against the oracle's
// from-scratch report of the toggled relation. About half the diffs also
// remove 1-3 links, as the served toggle diffs do, and are held against
// the oracle on the WithoutLinks-derived network. After every cyclic
// result the workspace must be back at its base: an empty diff answers
// BaseReport and a link-only diff answers its from-scratch verdict.
func TestDeltaTogglesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Links draw from their own stream, so the toggle sequence stays the
	// one the test always drew.
	linkRng := rand.New(rand.NewSource(12))
	var disables, enables, withLinks, cyclic int
	for step := 0; step < 40; step++ {
		net := oracleNetwork(rng)
		vcs := make(VCConfig, net.Dims())
		for d := range vcs {
			vcs[d] = 1 + rng.Intn(2)
		}
		classes := oracleClasses(rng, net.Dims(), vcs)
		ts := oracleTurnSet(rng, classes)
		dw, err := NewDeltaWorkspace(net, vcs, ts)
		if err != nil {
			t.Fatal(err)
		}
		mod := ts.Clone()
		var diff Diff
		turns := ts.Turns()
		for i := rng.Intn(3); i > 0 && len(turns) > 0; i-- {
			if tn := turns[rng.Intn(len(turns))]; tn.From != tn.To && mod.Remove(tn.From, tn.To) {
				diff.DisableTurns = append(diff.DisableTurns, tn)
			}
		}
		for i := 0; i < 3; i++ {
			a, b := classes[rng.Intn(len(classes))], classes[rng.Intn(len(classes))]
			if a != b && !mod.Allows(a, b) && !ts.Allows(a, b) {
				diff.EnableTurns = append(diff.EnableTurns, core.Turn{From: a, To: b, Source: core.ByTheorem1})
				mod.Add(a, b, core.ByTheorem1)
			}
		}
		if diff.Empty() {
			continue
		}
		disables += len(diff.DisableTurns)
		enables += len(diff.EnableTurns)
		wantNet := net
		if linkRng.Intn(2) == 0 {
			diff.RemoveLinks = distinctLinks(linkRng, net, 1+linkRng.Intn(3))
			wantNet = net.WithoutLinks(diff.RemoveLinks)
			withLinks++
		}
		want := referenceReport(wantNet, vcs, mod)
		got, err := dw.VerifyDiff(diff)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, net, err)
		}
		if !reportsIdentical(got, want) {
			t.Fatalf("step %d (%s, vcs %v, links %v):\ndelta:  %s\noracle: %s", step, net, vcs, diff.RemoveLinks, got, want)
		}
		if want.Acyclic {
			continue
		}
		cyclic++
		if again, err := dw.VerifyDiff(Diff{}); err != nil || !reportsIdentical(again, dw.BaseReport()) {
			t.Fatalf("step %d: empty diff after a cyclic toggle: %v\ngot:  %s\nbase: %s", step, err, again, dw.BaseReport())
		}
		links := distinctLinks(linkRng, net, 1+linkRng.Intn(3))
		again, err := dw.VerifyDiff(Diff{RemoveLinks: links})
		if wantLinks := referenceReport(net.WithoutLinks(links), vcs, ts); err != nil || !reportsIdentical(again, wantLinks) {
			t.Fatalf("step %d: link diff %v after a cyclic toggle: %v\ndelta:  %s\noracle: %s", step, links, err, again, wantLinks)
		}
	}
	if disables < 10 || enables < 10 || withLinks < 10 || cyclic == 0 {
		t.Errorf("sequence too thin: %d disabled turns, %d enabled, %d diffs with links, %d cyclic results",
			disables, enables, withLinks, cyclic)
	}
}

// distinctLinks draws n distinct links of the network (fewer if it has
// fewer).
func distinctLinks(rng *rand.Rand, net *topology.Network, n int) []topology.Link {
	links := net.Links()
	var out []topology.Link
	for _, i := range rng.Perm(len(links)) {
		if len(out) == n {
			break
		}
		out = append(out, links[i])
	}
	return out
}
