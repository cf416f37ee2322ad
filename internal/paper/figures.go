// Package paper assembles the exact artifacts of the EbDa paper: the
// partition chains behind every figure and table, the turn listings the
// paper prints, and the section-level numeric claims. It is the shared
// source of truth for the reproduction harness (cmd/ebda-repro, whose
// -table and -fig print the tables and figures themselves), the test
// suite, and the benchmarks.
//
// Where the paper's listing contains an apparent typo the corrected value
// is used and the deviation is recorded in the artifact's Notes field (see
// EXPERIMENTS.md for the full list).
package paper

import (
	"fmt"

	"ebda/internal/channel"
	"ebda/internal/core"
)

// Figure3 is the single three-channel partition of Figure 3:
// P = {X+ X- Y-}. Its 90-degree turns are WS, SE, ES and SW.
func Figure3() *core.Chain {
	return core.MustParseChain("P[X+ X- Y-]")
}

// Figure3Turns lists the four 90-degree turns the paper gives for Figure 3.
const Figure3Turns = "WS SE ES SW"

// Figure4 is the partition of Figure 4: three VCs along the Y dimension
// inside one partition ({Y1+ Y1- Y2+ Y2- Y3+ Y3-}). The ascending-order
// rule yields n(n-1)/2 = 15 U/I-turns: 9 U-turns and 6 I-turns.
func Figure4() *core.Chain {
	return core.MustParseChain("P[Y1* Y2* Y3*]")
}

// Figure5 is the two-partition chain of Figure 5 and the example of
// Theorem 3: PA{X+ X- Y-} -> PB{Y+}. Its 90-degree turns equal the
// North-Last turn model; Theorem 2 adds one X U-turn and Theorem 3 the
// S -> N U-turn.
func Figure5() *core.Chain {
	return core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]")
}

// Figure5Turns90 lists the six 90-degree turns (North-Last).
const Figure5Turns90 = "WS SE ES SW EN WN"

// Figure6 returns the five partitioning strategies P1..P5 of Figure 6
// together with the routing algorithm each defines.
func Figure6() []NamedChain {
	return []NamedChain{
		{Name: "P1 (XY routing)", Chain: core.MustParseChain("PA[X+] -> PB[X-] -> PC[Y+] -> PD[Y-]")},
		{Name: "P2 (partially adaptive)", Chain: core.MustParseChain("PA[Y-] -> PB[X-] -> PC[Y+ X+]")},
		{Name: "P3 (West-First)", Chain: core.MustParseChain("PA[X-] -> PB[X+ Y+ Y-]")},
		{Name: "P4 (Negative-First)", Chain: core.MustParseChain("PA[X- Y-] -> PB[X+ Y+]")},
		{Name: "P5 (VCs add no adaptiveness)", Chain: core.MustParseChain("PA[X-] -> PB[X+ Y1+ Y1- Y2+ Y2-]")},
	}
}

// NamedChain pairs a chain with the routing algorithm it defines.
type NamedChain struct {
	Name  string
	Chain *core.Chain
}

// Figure7FourPartitions is the four-partition, eight-channel design of
// Figure 7(a): one partition per region, fully adaptive but not minimal in
// channel count.
func Figure7FourPartitions() *core.Chain {
	return core.MustParseChain(
		"PA[X1+ Y1+] -> PB[X2+ Y1-] -> PC[X2- Y2-] -> PD[X1- Y2+]")
}

// Figure7P1 is the six-channel fully adaptive design of Figure 7(b),
// equivalent to DyXY: P1 = {PA[X1+ Y1+ Y1-]; PB[X1- Y2+ Y2-]}.
func Figure7P1() *core.Chain {
	return core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
}

// Figure7P2 is the alternative six-channel design of Figure 7(c):
// P2 = {PA[X1+ X1- Y1+]; PB[X2+ X2- Y1-]}.
func Figure7P2() *core.Chain {
	return core.MustParseChain("PA[X1+ X1- Y1+] -> PB[X2+ X2- Y1-]")
}

// Figure8 is the 3D design with 2, 2 and 4 VCs along X, Y and Z whose
// complete turn extraction the paper prints as Figure 8 (the partitioning
// of Figure 9(b)): PA{E1 N1 U1 D1}, PB{E2 S1 U2 D2}, PC{W2 S2 U3 D3},
// PD{W1 N2 U4 D4}.
func Figure8() *core.Chain {
	return core.MustParseChain(
		"PA[X1+ Y1+ Z1+ Z1-] -> PB[X2+ Y1- Z2+ Z2-] -> PC[X2- Y2- Z3+ Z3-] -> PD[X1- Y2+ Z4+ Z4-]")
}

// Figure8Box is one printed box of Figure 8: the turns one theorem
// contributes for one partition or partition transition.
type Figure8Box struct {
	// Label identifies the box, e.g. "PA Theorem1" or "PA->PC Theorem3".
	Label string
	// Turns90, UTurns and ITurns list the paper's turn strings in Short
	// notation (E1N1, U1D2, ...).
	Turns90, UTurns, ITurns string
	// Notes records corrections applied to the paper's listing.
	Notes string
}

// Figure8Boxes returns every box of Figure 8 exactly as printed, with one
// correction: the paper's PC->PD I-turn list contains "W1W2", which is
// backwards for a PC->PD transition (W2 is in PC, W1 in PD); the corrected
// turn is W2W1.
func Figure8Boxes() []Figure8Box {
	return []Figure8Box{
		{Label: "PA Theorem1",
			Turns90: "E1U1 E1D1 E1N1 N1U1 N1D1 N1E1 U1E1 U1N1 D1E1 D1N1"},
		{Label: "PA Theorem2", UTurns: "U1D1"},
		{Label: "PB Theorem1",
			Turns90: "E2U2 E2D2 E2S1 S1U2 S1D2 S1E2 U2E2 U2S1 D2E2 D2S1"},
		{Label: "PB Theorem2", UTurns: "U2D2"},
		{Label: "PC Theorem1",
			Turns90: "W2U3 W2D3 W2S2 S2U3 S2D3 S2W2 U3W2 U3S2 D3W2 D3S2"},
		{Label: "PC Theorem2", UTurns: "U3D3"},
		{Label: "PD Theorem1",
			Turns90: "W1U4 W1D4 W1N2 N2U4 N2D4 N2W1 U4W1 U4N2 D4W1 D4N2"},
		{Label: "PD Theorem2", UTurns: "U4D4"},
		{Label: "PA->PB Theorem3",
			Turns90: "E1U2 E1D2 E1S1 N1U2 N1D2 N1E2 U1E2 U1S1 D1E2 D1S1",
			UTurns:  "N1S1 U1D2 D1U2",
			ITurns:  "E1E2 U1U2 D1D2"},
		{Label: "PA->PC Theorem3",
			Turns90: "E1U3 E1D3 E1S2 N1U3 N1D3 N1W2 U1W2 U1S2 D1W2 D1S2",
			UTurns:  "N1S2 E1W2 U1D3 D1U3",
			ITurns:  "U1U3 D1D3"},
		{Label: "PA->PD Theorem3",
			Turns90: "E1U4 E1D4 E1N2 N1U4 N1D4 N1W1 U1W1 U1N2 D1W1 D1N2",
			UTurns:  "E1W1 U1D4 D1U4",
			ITurns:  "N1N2 U1U4 D1D4"},
		{Label: "PB->PC Theorem3",
			Turns90: "E2U3 E2D3 E2S2 S1U3 S1D3 S1W2 U2W2 U2S2 D2W2 D2S2",
			UTurns:  "E2W2 U2D3 D2U3",
			ITurns:  "S1S2 U2U3 D2D3"},
		{Label: "PB->PD Theorem3",
			Turns90: "E2U4 E2D4 E2N2 S1U4 S1D4 S1W1 U2W1 U2N2 D2W1 D2N2",
			UTurns:  "E2W1 S1N2 U2D4 D2U4",
			ITurns:  "U2U4 D2D4"},
		{Label: "PC->PD Theorem3",
			Turns90: "W2U4 W2D4 W2N2 S2U4 S2D4 S2W1 U3W1 U3N2 D3W1 D3N2",
			UTurns:  "S2N2 U3D4 D3U4",
			ITurns:  "W2W1 U3U4 D3D4",
			Notes:   "paper prints I-turn W1W2; corrected to W2W1 (W2 is in PC, W1 in PD)"},
	}
}

// Figure9EightPartitions is the eight-partition, 24-channel 3D design of
// Figure 9(a): one partition per orthant.
func Figure9EightPartitions() *core.Chain {
	return core.MustParseChain(
		"PA[X1+ Y1+ Z1+] -> PB[X1- Y2+ Z4+] -> PC[X2+ Y1- Z2+] -> PD[X2- Y2- Z3+] -> " +
			"PE[X3+ Y3+ Z1-] -> PF[X3- Y4+ Z4-] -> PG[X4- Y4- Z3-] -> PH[X4+ Y3- Z2-]")
}

// Figure9B is the 16-channel design of Figure 9(b) (2, 2, 4 VCs along X,
// Y, Z) — identical to Figure8.
func Figure9B() *core.Chain { return Figure8() }

// PlanarAdaptiveChain expresses Chien & Kim's planar-adaptive routing
// (reference [2], discussed in the paper's related work) as an EbDa
// partition chain: each routing plane Ai = (d_i, d_i+1) contributes the
// two DyXY-style partitions
//
//	PAi[d_i+ @lead  d_i+1(+,-) @vc1]  ->  PBi[d_i- @lead  d_i+1(+,-) @vc2]
//
// with lead VC 1 for the first dimension and 3 for middle dimensions, and
// planes chained in order. For n = 3 this uses 1, 3, 2 VCs (12 channels)
// against the 16 of the fully adaptive design — a worked example of the
// paper's point that prior algorithms fall out of the partitioning
// methodology. The chain's turn relation is a superset of the classic
// rule-based algorithm (Theorem 3 also admits early transitions into
// later planes).
func PlanarAdaptiveChain(n int) (*core.Chain, error) {
	if n < 2 {
		return nil, fmt.Errorf("paper: planar-adaptive needs n >= 2, got %d", n)
	}
	var parts []*core.Partition
	name := 'A'
	for i := 0; i < n-1; i++ {
		lead := 1
		if i > 0 {
			lead = 3
		}
		di, dj := channel.Dim(i), channel.Dim(i+1)
		pa, err := core.NewPartition("P"+string(name),
			channel.NewVC(di, channel.Plus, lead),
			channel.NewVC(dj, channel.Plus, 1),
			channel.NewVC(dj, channel.Minus, 1),
		)
		if err != nil {
			return nil, err
		}
		name++
		pb, err := core.NewPartition("P"+string(name),
			channel.NewVC(di, channel.Minus, lead),
			channel.NewVC(dj, channel.Plus, 2),
			channel.NewVC(dj, channel.Minus, 2),
		)
		if err != nil {
			return nil, err
		}
		name++
		parts = append(parts, pa, pb)
	}
	return core.NewChain(parts...)
}

// Figure10 is the Odd-Even turn model of Figure 10, reproduced by the
// parity partitioning of Section 6.2 — identical to Table4Chain.
func Figure10() *core.Chain { return Table4Chain() }

// Figure9C is the alternative 16-channel design of Figure 9(c) (3, 2, 3
// VCs along X, Y, Z), as produced by the Section 5 worked example:
// P = {PA[Z1* X1+ Y1+]; PB[Z2* X1- Y2+]; PC[X2* Z3+ Y1-]; PD[X3* Z3- Y2-]}.
func Figure9C() *core.Chain {
	return core.MustParseChain(
		"PA[Z1* X1+ Y1+] -> PB[Z2* X1- Y2+] -> PC[X2* Z3+ Y1-] -> PD[X3* Z3- Y2-]")
}
