package cdg

import (
	"strings"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// datelineRoute is dimension-order routing on a torus with a dateline:
// a packet rides VC 1 in each dimension until it crosses that dimension's
// wraparound link, then VC 2. It needs two VCs per dimension.
func datelineRoute(g *Graph, at topology.NodeID, in *Channel, dst topology.NodeID) []int {
	for d, off := range g.Net().MinimalOffsets(at, dst) {
		if off == 0 {
			continue
		}
		sign := channel.Plus
		if off < 0 {
			sign = channel.Minus
		}
		vc := 1
		if in != nil && int(in.Link.Dim) == d && (in.VC == 2 || in.Link.Wrap) {
			vc = 2
		}
		ch, ok := g.FindChannel(at, channel.Dim(d), sign, vc)
		if !ok {
			return nil
		}
		return []int{ch.Index}
	}
	return nil
}

// TestTopoOrderWitness checks the peel's topological order on a 2D mesh,
// a torus, a 3D mesh and a vertically partial 3D mesh: it covers every
// channel, every dependency goes forward in it, and CheckCertificate
// accepts it.
func TestTopoOrderWitness(t *testing.T) {
	chain2 := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	chain3 := core.MustParseChain("PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-]")
	torus := NewGraph(topology.NewTorus(4, 4), Uniform(2, 2))
	torus.AddRoutingEdges(datelineRoute)
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"mesh", BuildFromTurnSet(topology.NewMesh(4, 4), VCConfigFor(2, chain2.Channels()), chain2.AllTurns())},
		{"torus", torus},
		{"mesh3d", BuildFromTurnSet(topology.NewMesh(3, 3, 3), VCConfigFor(3, chain3.Channels()), chain3.AllTurns())},
		{"partial3d", BuildFromTurnSet(topology.NewPartialMesh3D(4, 4, 3, [][2]int{{0, 0}, {3, 3}}),
			VCConfigFor(3, chain3.Channels()), chain3.AllTurns())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			if g.NumEdges() == 0 {
				t.Fatal("graph has no dependencies")
			}
			order, err := g.TopoOrder()
			if err != nil {
				t.Fatal(err)
			}
			if len(order) != g.NumChannels() {
				t.Fatalf("order covers %d of %d channels", len(order), g.NumChannels())
			}
			// Every dependency must go forward in the ordering.
			pos := make(map[int]int, len(order))
			for i, ch := range order {
				pos[ch.Index] = i
			}
			for i := 0; i < g.NumChannels(); i++ {
				for _, s := range g.Succs(i) {
					if pos[i] >= pos[int(s)] {
						t.Fatalf("dependency %d -> %d violates the witness ordering", i, s)
					}
				}
			}
			cert := &Certificate{Order: make([]int, len(order))}
			for i, ch := range order {
				cert.Order[i] = ch.Index
			}
			if err := g.CheckCertificate(cert); err != nil {
				t.Fatalf("topological order rejected as a certificate: %v", err)
			}
		})
	}
}

func TestTopoOrderFailsOnCycles(t *testing.T) {
	g := BuildFromTurnSet(topology.NewMesh(3, 3), nil, allTurnSet())
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cyclic graph must not have a topological order")
	}
}

func TestRegionAdaptivenessTable5Claim(t *testing.T) {
	// Section 6.3: with PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-], "fully
	// adaptive routing can be utilized in four regions as NEU, SEU, NWD,
	// SWD and partially adaptive routing can be used in the other four".
	// Verified here on a fully connected 3D mesh (the region claim is a
	// property of the turn set; vertical partial connectivity only
	// restricts which pairs exist).
	chain := core.MustParseChain("PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-]")
	net := topology.NewMesh(3, 3, 3)
	vcs := VCConfigFor(3, chain.Channels())
	regions, err := RegionAdaptiveness(net, vcs, chain.AllTurns())
	if err != nil {
		t.Fatal(err)
	}
	wantFull := map[string]bool{
		"ENU": true, "ESU": true, "WND": true, "WSD": true,
		"END": false, "ESD": false, "WNU": false, "WSU": false,
	}
	for _, r := range regions {
		want, ok := wantFull[r.Name()]
		if !ok {
			t.Fatalf("unexpected region %s", r.Name())
		}
		if r.Pairs == 0 {
			t.Fatalf("region %s has no pairs", r.Name())
		}
		if got := r.FullyAdaptive(); got != want {
			t.Errorf("region %s fully adaptive = %v, want %v (%s)",
				r.Name(), got, want, r.AdaptivenessReport)
		}
		if r.BrokenPairs != 0 {
			t.Errorf("region %s has %d broken pairs", r.Name(), r.BrokenPairs)
		}
	}
}

func TestRegionAdaptivenessWestFirst(t *testing.T) {
	chain := core.MustParseChain("PA[X-] -> PB[X+ Y+ Y-]")
	net := topology.NewMesh(5, 5)
	regions, err := RegionAdaptiveness(net, nil, chain.AllTurns())
	if err != nil {
		t.Fatal(err)
	}
	wantFull := map[string]bool{"EN": true, "ES": true, "WN": false, "WS": false}
	for _, r := range regions {
		if got := r.FullyAdaptive(); got != wantFull[r.Name()] {
			t.Errorf("west-first region %s fully adaptive = %v, want %v",
				r.Name(), got, wantFull[r.Name()])
		}
	}
}

func TestCertificate(t *testing.T) {
	chain := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]")
	g := BuildFromTurnSet(topology.NewMesh(4, 4), nil, chain.AllTurns())
	cert, err := g.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckCertificate(cert); err != nil {
		t.Fatalf("own certificate rejected: %v", err)
	}
	// Tampered, short, repeated, out-of-range and missing certificates
	// are rejected.
	swapped := append([]int(nil), cert.Order...)
	swapped[0], swapped[len(swapped)-1] = swapped[len(swapped)-1], swapped[0]
	dup := append([]int(nil), cert.Order...)
	dup[1] = dup[0]
	bad := append([]int(nil), cert.Order...)
	bad[0] = len(cert.Order) + 5
	for _, tc := range []struct {
		name string
		c    *Certificate
	}{
		{"tampered", &Certificate{Order: swapped}},
		{"short", &Certificate{Order: cert.Order[:3]}},
		{"duplicated", &Certificate{Order: dup}},
		{"out-of-range", &Certificate{Order: bad}},
		{"nil", nil},
	} {
		if err := g.CheckCertificate(tc.c); err == nil {
			t.Errorf("%s certificate accepted", tc.name)
		}
	}
	// Cyclic graphs have no certificate.
	gc := BuildFromTurnSet(topology.NewMesh(3, 3), nil, allTurnSet())
	if _, err := gc.Certificate(); err == nil {
		t.Error("cyclic graph produced a certificate")
	}
}

func TestDOTOutput(t *testing.T) {
	gAcyclic := BuildFromTurnSet(topology.NewMesh(3, 3), nil, xyTurnSet())
	dot := gAcyclic.DOT("xy")
	for _, want := range []string{"digraph \"xy\"", "rankdir=LR", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	if strings.Contains(dot, "ffcccc") {
		t.Error("acyclic graph should have no highlighted SCC nodes")
	}
	gCyclic := BuildFromTurnSet(topology.NewMesh(3, 3), nil, allTurnSet())
	dot = gCyclic.DOT("all")
	if !strings.Contains(dot, "ffcccc") || !strings.Contains(dot, "color=red") {
		t.Error("cyclic graph should highlight its SCCs")
	}
}
