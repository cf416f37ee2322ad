package main

import (
	"fmt"
	"io"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/paper"
	"ebda/internal/topology"
)

// The figure printers regenerate the turn-set figures of the paper
// (Figures 3-10) and the section-level numeric artifacts (Section 2
// search space as figure 0, Section 5 worked example as figure 14,
// Section 6.2 Hamiltonian coverage as figure 15).

// allFigs fixes the emission order; printers is a map, so iteration must
// never range over it directly.
var allFigs = []int{0, 3, 4, 5, 6, 7, 8, 9, 10, 14, 15}

// renderFigures writes the requested figures to w. All output flows
// through w so the emitters are testable — the regression tests render
// twice and require byte-identical output.
func renderFigures(w io.Writer, figs []int) error {
	for _, f := range figs {
		fn, ok := printers[f]
		if !ok {
			return fmt.Errorf("unknown figure %d", f)
		}
		if err := fn(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

var printers = map[int]func(io.Writer) error{
	0:  printSection2,
	3:  printFig3,
	4:  printFig4,
	5:  printFig5,
	6:  printFig6,
	7:  printFig7,
	8:  printFig8,
	9:  printFig9,
	10: printFig10,
	14: printSection5,
	15: printHamiltonian,
}

func printFig10(w io.Writer) error {
	chain := paper.Figure10()
	fmt.Fprintf(w, "Figure 10: Odd-Even turns via %s\n", chain.PlainString())
	for _, row := range paper.Table4Expected() {
		fmt.Fprintf(w, "  %-8s %s\n", row.Label, row.Turns90)
	}
	fmt.Fprintln(w, verifyLine(topology.NewMesh(8, 8), chain))
	return nil
}

func verifyLine(net *topology.Network, chain *core.Chain) string {
	return "  verification: " + cdg.VerifyChain(net, chain).String()
}

func printFig3(w io.Writer) error {
	chain := paper.Figure3()
	fmt.Fprintf(w, "Figure 3: %s\n", chain.PlainString())
	fmt.Fprintf(w, "  90-degree turns: %s\n", core.FormatTurnsPlain(chain.Turns90().Turns()))
	fmt.Fprintln(w, verifyLine(topology.NewMesh(8, 8), chain))
	return nil
}

func printFig4(w io.Writer) error {
	chain := paper.Figure4()
	ts := chain.AllTurns()
	_, nU, nI := ts.Counts()
	fmt.Fprintf(w, "Figure 4: %s\n", chain.PlainString())
	fmt.Fprintf(w, "  U-turns (%d): %s\n", nU, core.FormatTurns(ts.ByKind(core.UTurn)))
	fmt.Fprintf(w, "  I-turns (%d): %s\n", nI, core.FormatTurns(ts.ByKind(core.ITurn)))
	u, i, total := core.UITurnCounts(3, 3)
	fmt.Fprintf(w, "  formula: n(n-1)/2 = %d = ab (%d) + C(a,2)+C(b,2) (%d)\n", total, u, i)
	return nil
}

func printFig5(w io.Writer) error {
	chain := paper.Figure5()
	ts := chain.AllTurns()
	fmt.Fprintf(w, "Figure 5: %s (North-Last)\n", chain.PlainString())
	fmt.Fprintf(w, "  90-degree turns: %s\n", core.FormatTurnsPlain(chain.Turns90().Turns()))
	fmt.Fprintf(w, "  U-turns: %s\n", core.FormatTurnsPlain(ts.ByKind(core.UTurn)))
	fmt.Fprintln(w, verifyLine(topology.NewMesh(8, 8), chain))
	return nil
}

func printFig6(w io.Writer) error {
	fmt.Fprintln(w, "Figure 6: partitioning strategies for four channels")
	mesh := topology.NewMesh(6, 6)
	for _, nc := range paper.Figure6() {
		fmt.Fprintf(w, "  %-30s %s\n", nc.Name, nc.Chain.PlainString())
		fmt.Fprintf(w, "    90-degree turns: %s\n", core.FormatTurnsPlain(nc.Chain.Turns90().Turns()))
		fmt.Fprintf(w, "    %s\n", cdg.VerifyChain(mesh, nc.Chain))
	}
	return nil
}

func printFig7(w io.Writer) error {
	fmt.Fprintln(w, "Figure 7: fully adaptive 2D designs")
	mesh := topology.NewMesh(5, 5)
	for _, tc := range []struct {
		name  string
		chain *core.Chain
	}{
		{"(a) four partitions, 8 channels", paper.Figure7FourPartitions()},
		{"(b) P1 = DyXY, 6 channels", paper.Figure7P1()},
		{"(c) P2, 6 channels", paper.Figure7P2()},
	} {
		vcs := cdg.VCConfigFor(2, tc.chain.Channels())
		ad, err := cdg.Adaptiveness(mesh, vcs, tc.chain.AllTurns())
		fmt.Fprintf(w, "  %-32s %s\n", tc.name, tc.chain)
		if err != nil {
			fmt.Fprintf(w, "    adaptiveness: %v\n", err)
		} else {
			fmt.Fprintf(w, "    %s; fully adaptive: %v\n", ad, ad.FullyAdaptive())
		}
		fmt.Fprintf(w, "    %s\n", cdg.VerifyChain(mesh, tc.chain))
	}
	fmt.Fprintf(w, "  minimum channels for n=2: %d\n", core.MinChannelsFullyAdaptive(2))
	return nil
}

func printFig8(w io.Writer) error {
	chain := paper.Figure8()
	fmt.Fprintf(w, "Figure 8: turn extraction for %s\n", chain)
	for _, b := range paper.Figure8Boxes() {
		fmt.Fprintf(w, "  %s\n", b.Label)
		if b.Turns90 != "" {
			fmt.Fprintf(w, "    Turns:   %s\n", b.Turns90)
		}
		if b.UTurns != "" {
			fmt.Fprintf(w, "    U-Turns: %s\n", b.UTurns)
		}
		if b.ITurns != "" {
			fmt.Fprintf(w, "    I-Turns: %s\n", b.ITurns)
		}
		if b.Notes != "" {
			fmt.Fprintf(w, "    note: %s\n", b.Notes)
		}
	}
	ts := chain.AllTurns()
	n90, nU, nI := ts.Counts()
	fmt.Fprintf(w, "  totals: %d 90-degree, %d U, %d I\n", n90, nU, nI)
	fmt.Fprintln(w, verifyLine(topology.NewMesh(3, 3, 3), chain))
	return nil
}

func printFig9(w io.Writer) error {
	fmt.Fprintln(w, "Figure 9: 3D fully adaptive designs")
	mesh := topology.NewMesh(3, 3, 3)
	for _, tc := range []struct {
		name  string
		chain *core.Chain
	}{
		{"(a) eight partitions, 24 channels", paper.Figure9EightPartitions()},
		{"(b) four partitions, 16 channels (2,2,4 VCs)", paper.Figure9B()},
		{"(c) four partitions, 16 channels (3,2,3 VCs)", paper.Figure9C()},
	} {
		fmt.Fprintf(w, "  %-46s %s\n", tc.name, tc.chain)
		vcs := cdg.VCConfigFor(3, tc.chain.Channels())
		ad, err := cdg.Adaptiveness(mesh, vcs, tc.chain.AllTurns())
		if err == nil {
			fmt.Fprintf(w, "    %s; fully adaptive: %v\n", ad, ad.FullyAdaptive())
		}
		fmt.Fprintf(w, "    %s\n", cdg.VerifyChain(mesh, tc.chain))
	}
	fmt.Fprintf(w, "  minimum channels for n=3: %d\n", core.MinChannelsFullyAdaptive(3))
	return nil
}

func printSection2(w io.Writer) error {
	fmt.Fprintln(w, "Section 2: turn-model verification search space")
	for _, c := range paper.Section2Claims() {
		fmt.Fprintf(w, "  %-35s %2d abstract cycles -> %s combinations (paper: %s)\n",
			c.Setting, c.Cycles, c.Combos, c.PaperText)
		if !c.Consistent {
			fmt.Fprintf(w, "    note: %s\n", c.Notes)
		}
	}
	rs := paper.TurnModelSearch(topology.NewMesh(4, 4))
	free, classes := paper.CountDeadlockFree(rs)
	fmt.Fprintf(w, "  brute force over all 16 2D removals: %d deadlock-free, %d unique under symmetry\n",
		free, classes)
	for _, r := range rs {
		status := "deadlock-free"
		if !r.DeadlockFree {
			status = "CYCLIC"
		}
		fmt.Fprintf(w, "    remove %s (cw) + %s (ccw): %s (class %d)\n",
			r.RemovedCW.PlainString(), r.RemovedCCW.PlainString(), status, r.SymmetryClass)
	}
	res3 := paper.TurnModelSearch3D(topology.NewMesh(3, 3, 3))
	fmt.Fprintf(w, "  3D sweep (beyond the paper): %d combinations, %d deadlock-free, %d classes under cube symmetry\n",
		res3.Combinations, res3.DeadlockFree, res3.Classes)
	return nil
}

func printSection5(w io.Writer) error {
	fmt.Fprintln(w, "Section 5 worked example: Algorithm 1 on 3,2,3 VCs")
	arr := paper.Section5Arrangement()
	for _, s := range arr {
		fmt.Fprintf(w, "  input %s\n", s)
	}
	chain, err := paper.Section5Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  result: %s\n", chain)
	fmt.Fprintf(w, "  paper:  %s\n", paper.Section5Expected)
	fmt.Fprintln(w, verifyLine(topology.NewMesh(3, 3, 3), chain))
	return nil
}

func printHamiltonian(w io.Writer) error {
	chain := paper.HamiltonianChain()
	ts := chain.AllTurns()
	n90, _, _ := ts.Counts()
	fmt.Fprintf(w, "Section 6.2: Hamiltonian-path strategy via %s\n", chain.PlainString())
	fmt.Fprintf(w, "  90-degree turns (%d): %s\n", n90, core.FormatTurnsPlain(ts.ByKind(core.Turn90)))
	covered := true
	for _, t := range paper.HamiltonianPathTurns() {
		if !ts.Allows(t.From, t.To) {
			covered = false
		}
	}
	fmt.Fprintf(w, "  covers all 8 dual-Hamiltonian-path turns: %v\n", covered)
	rep := cdg.VerifyTurnSet(topology.NewMesh(6, 6), nil, ts)
	fmt.Fprintf(w, "  verification: %s\n", rep)
	return nil
}
