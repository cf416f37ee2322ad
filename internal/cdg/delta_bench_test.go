package cdg

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"ebda/internal/core"
	"ebda/internal/topology"
)

// The delta path's perf claim: re-verifying an 8x8 mesh after a
// single-link change through the retained workspace must cost a few
// percent of a full verification. BenchmarkVerifyDelta and
// BenchmarkVerifyFull measure the two sides; TestDeltaLinkRatio gates
// their ratio.

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

// maxLinkRatio is the single-link gate: an incremental re-verify may cost
// at most this fraction of a from-scratch verify of the same diff.
const maxLinkRatio = 0.05

// TestDeltaLinkRatio gates the delta path on the 8x8-mesh north-last
// design with every link removed in turn as a single-link diff. Each
// distinct diff's delta report must first equal the from-scratch report.
// Then rotating diffs are timed the pre-delta way (derive the faulty
// network, verify it through the pool) and, interleaved with them in
// slices of equal wall-clock time, through the retained workspace. Every timed diff must take the
// incremental path, and the delta/full cost ratio must stay at or below
// maxLinkRatio, and so below 1. The race detector inflates the
// incremental path's constant costs, so race runs check equivalence
// only.
func TestDeltaLinkRatio(t *testing.T) {
	net := topology.NewMesh(8, 8)
	chain := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]")
	ts := chain.AllTurns()
	vcs := VCConfigFor(net.Dims(), chain.Channels())
	full := func(d Diff) Report { return VerifyTurnSet(net.WithoutLinks(d.RemoveLinks), vcs, ts) }
	links := net.Links()
	diffs := make([]Diff, len(links))
	for i, l := range links {
		diffs[i] = Diff{RemoveLinks: []topology.Link{l}}
	}

	dw, err := NewDeltaWorkspace(net, vcs, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range diffs {
		got, err := dw.VerifyDiff(d)
		if err != nil {
			t.Fatalf("diff %d: %v", i, err)
		}
		if want := full(d); !reportsIdentical(got, want) {
			t.Fatalf("diff %d: delta report diverges from from-scratch:\n delta %v\n  full %v", i, got, want)
		}
	}
	if raceEnabled {
		t.Skip("race detector: delta/full timing is skewed; equivalence checked above")
	}

	// The two sides alternate in short slices that span the same
	// wall-clock time: 16 full diffs, then as many delta diffs as take as
	// long (a delta diff costs a few percent of a full one). Each side's
	// cost is its best slice's mean over five passes of 16 slices each.
	// Contention from other processes then lands on both sides alike,
	// and a preemption or GC pause spoils only the slice it lands in,
	// while a genuinely slower path is slower in every slice.
	const fullSlice, slices, passes = 16, 16, 5
	var deltaAt, fullAt int
	verifyDelta := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := dw.VerifyDiff(diffs[deltaAt%len(diffs)]); err != nil {
				t.Fatal(err)
			}
			deltaAt++
		}
	}
	verifyFull := func(n int) {
		for i := 0; i < n; i++ {
			if rep := full(diffs[fullAt%len(diffs)]); rep.Channels == 0 {
				t.Fatal("empty from-scratch report")
			}
			fullAt++
		}
	}
	// perDiff times n diffs and returns their mean cost in ns.
	perDiff := func(run func(int), n int) float64 {
		t0 := time.Now()
		run(n)
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	incremental := obsDeltaIncremental.Value()
	// Calibrate the delta slice on a pass's worth of each side.
	runtime.GC()
	scale := perDiff(verifyFull, slices*fullSlice) / perDiff(verifyDelta, slices*fullSlice)
	deltaSlice := int(math.Ceil(min(max(scale, 1), 64) * fullSlice))
	deltaNS, fullNS := math.Inf(1), math.Inf(1)
	for p := 0; p < passes; p++ {
		runtime.GC()
		for i := 0; i < slices; i++ {
			fullNS = min(fullNS, perDiff(verifyFull, fullSlice))
			deltaNS = min(deltaNS, perDiff(verifyDelta, deltaSlice))
		}
	}
	incremental = obsDeltaIncremental.Value() - incremental
	timedDiffs := uint64(deltaAt)

	t.Logf("full %.0f ns  delta %.0f ns  ratio %.4f  delta slice %d diffs  incremental %d/%d",
		fullNS, deltaNS, deltaNS/fullNS, deltaSlice, incremental, timedDiffs)
	for _, msg := range linkRatioGate(deltaNS, fullNS, incremental, timedDiffs) {
		t.Error(msg)
	}
}

// linkRatioGate applies TestDeltaLinkRatio's three gates to one timing:
// all timed diffs took the incremental path, and the delta/full cost
// ratio is at most maxLinkRatio and at most 1. It returns one message
// per failed gate.
func linkRatioGate(deltaNS, fullNS float64, incremental, timed uint64) []string {
	var failed []string
	if incremental != timed {
		failed = append(failed, fmt.Sprintf("%d of %d timed diffs took the incremental path, want all", incremental, timed))
	}
	ratio := deltaNS / fullNS
	if ratio > maxLinkRatio {
		failed = append(failed, fmt.Sprintf("delta/full ratio %.4f above the %.2f gate", ratio, maxLinkRatio))
	}
	if ratio > 1 {
		failed = append(failed, fmt.Sprintf("incremental re-verify (%.0f ns) slower than a full verify (%.0f ns)", deltaNS, fullNS))
	}
	return failed
}

// gateFailures reports whether linkRatioGate's messages include one
// containing want, and how many it returned.
func gateFailures(msgs []string, want string) (bool, int) {
	for _, m := range msgs {
		if strings.Contains(m, want) {
			return true, len(msgs)
		}
	}
	return false, len(msgs)
}

// TestDeltaAbsoluteGate holds the single-link ratio to maxLinkRatio: a
// 0.02 ratio passes, a 0.08 ratio fails on that gate alone.
func TestDeltaAbsoluteGate(t *testing.T) {
	if msgs := linkRatioGate(2_000, 100_000, 1280, 1280); len(msgs) != 0 {
		t.Fatalf("ratio 0.02 failed: %v", msgs)
	}
	msgs := linkRatioGate(8_000, 100_000, 1280, 1280)
	if found, n := gateFailures(msgs, "above the 0.05 gate"); !found || n != 1 {
		t.Fatalf("ratio 0.08: got %v, want only the ratio gate", msgs)
	}
}

// TestDeltaSlowerThanFullFails: an incremental path that costs more than
// the from-scratch verify (ratio above 1) is reported as such, not only
// as an over-gate ratio.
func TestDeltaSlowerThanFullFails(t *testing.T) {
	msgs := linkRatioGate(130_000, 100_000, 1280, 1280)
	if found, _ := gateFailures(msgs, "slower than a full verify"); !found {
		t.Fatalf("ratio 1.3: got %v, want a slower-than-full failure", msgs)
	}
}

// TestDeltaNoIncrementalFails: a run whose timed diffs were rebuilt
// rather than verified incrementally fails even at a passing ratio.
func TestDeltaNoIncrementalFails(t *testing.T) {
	for _, incremental := range []uint64{0, 1279} {
		msgs := linkRatioGate(2_000, 100_000, incremental, 1280)
		if found, n := gateFailures(msgs, "took the incremental path"); !found || n != 1 {
			t.Fatalf("%d/1280 incremental: got %v, want only the incremental gate", incremental, msgs)
		}
	}
}
