package cdg

import (
	"testing"

	"ebda/internal/core"
	"ebda/internal/topology"
)

// The tentpole perf claim: re-verifying an 8x8 mesh after a single-link
// change through the retained workspace must cost a few percent of a full
// verification. BenchmarkVerifyDelta and BenchmarkVerifyFull measure the
// two sides; cmd/ebda-deltabench records their ratio in BENCH_delta.json
// and ebda-benchdiff gates it.

func benchSetup(b *testing.B) (*topology.Network, VCConfig, *core.TurnSet, []topology.Link) {
	b.Helper()
	net := topology.NewMesh(8, 8)
	ts := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]").AllTurns()
	return net, nil, ts, net.Links()
}

func BenchmarkVerifyDelta(b *testing.B) {
	net, vcs, ts, links := benchSetup(b)
	dw, err := NewDeltaWorkspace(net, vcs, ts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diff := Diff{RemoveLinks: []topology.Link{links[i%len(links)]}}
		if _, err := dw.VerifyDiff(diff); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyDeltaTurnToggle(b *testing.B) {
	net, vcs, ts, _ := benchSetup(b)
	dw, err := NewDeltaWorkspace(net, vcs, ts)
	if err != nil {
		b.Fatal(err)
	}
	turns := ts.Turns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diff := Diff{DisableTurns: []core.Turn{turns[i%len(turns)]}}
		if _, err := dw.VerifyDiff(diff); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyFull(b *testing.B) {
	net, vcs, ts, links := benchSetup(b)
	// Verify the same faulty variants the delta benchmark checks, the
	// pre-delta way: derive the faulty network and run the pooled full
	// verification.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		derived := net.WithoutLinks([]topology.Link{links[i%len(links)]})
		rep := VerifyTurnSet(derived, vcs, ts)
		if rep.Channels == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkVerifyFullRetained isolates the verification cost from the
// network derivation: a full rebuild + peel on the retained base shape.
func BenchmarkVerifyFullRetained(b *testing.B) {
	net, vcs, ts, _ := benchSetup(b)
	ws := NewWorkspace(net, vcs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := ws.VerifyTurnSet(ts); rep.Channels == 0 {
			b.Fatal("empty report")
		}
	}
}
