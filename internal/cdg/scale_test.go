package cdg

import (
	"testing"

	"ebda/internal/core"
	"ebda/internal/partstrat"
	"ebda/internal/topology"
)

// The paper's scalability pitch: Dally-style search is infeasible beyond a
// handful of channels (4^24 combinations for 3D with one added VC), while
// EbDa designs verify directly at any dimension. These tests verify
// constructed designs well beyond the sizes turn-model search could reach.

func TestScale2DLargeMesh(t *testing.T) {
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	net := topology.NewMesh(32, 32)
	rep := VerifyChain(net, chain)
	if !rep.Acyclic {
		t.Fatalf("32x32: %s", rep)
	}
	if rep.Channels < 5000 {
		t.Errorf("expected thousands of channels, got %d", rep.Channels)
	}
}

func TestScale4DDesign(t *testing.T) {
	chain, err := partstrat.MinFullyAdaptiveChain(4)
	if err != nil {
		t.Fatal(err)
	}
	net := topology.NewMesh(3, 3, 3, 3)
	rep := VerifyChain(net, chain)
	if !rep.Acyclic {
		t.Fatalf("4D: %s", rep)
	}
	conn := Connectivity(net, VCConfigFor(4, chain.Channels()), chain.AllTurns(), true)
	if !conn.Connected() {
		t.Errorf("4D connectivity: %s", conn)
	}
}

func TestScale5DDesign(t *testing.T) {
	// 5D: 96 channels in 16 partitions — the regime where the paper says
	// turn-model verification needs billions of combinations.
	chain, err := partstrat.MinFullyAdaptiveChain(5)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Len() != 16 || len(chain.Channels()) != 96 {
		t.Fatalf("5D design shape: %d partitions, %d channels", chain.Len(), len(chain.Channels()))
	}
	net := topology.NewMesh(2, 2, 2, 2, 2)
	rep := VerifyChain(net, chain)
	if !rep.Acyclic {
		t.Fatalf("5D: %s", rep)
	}
}

func TestScaleWitnessLargeMesh(t *testing.T) {
	// The topological witness also scales: a full ordering of every
	// concrete channel on a 16x16 mesh.
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	g := BuildFromTurnSet(topology.NewMesh(16, 16),
		VCConfigFor(2, chain.Channels()), chain.AllTurns())
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != g.NumChannels() {
		t.Errorf("witness covers %d of %d", len(order), g.NumChannels())
	}
	cert := &Certificate{Order: make([]int, len(order))}
	for i, ch := range order {
		cert.Order[i] = ch.Index
	}
	if err := g.CheckCertificate(cert); err != nil {
		t.Errorf("witness rejected as a certificate: %v", err)
	}
}
