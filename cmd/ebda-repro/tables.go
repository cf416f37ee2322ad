package main

import (
	"fmt"
	"io"
	"strings"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/paper"
	"ebda/internal/topology"
)

// allTables lists Tables 1-5 of the paper, each verified through the
// channel dependency graph as it is printed.
var allTables = []int{1, 2, 3, 4, 5}

// renderTables writes the requested tables to w. All output flows
// through w so the emitters are testable — the regression tests render
// twice and require byte-identical output.
func renderTables(w io.Writer, tables []int) error {
	for _, n := range tables {
		switch n {
		case 1, 2, 3:
			if err := renderChainTable(w, n); err != nil {
				return err
			}
		case 4:
			renderTable4(w)
		case 5:
			renderTable5(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func renderChainTable(w io.Writer, n int) error {
	var (
		chains []*core.Chain
		title  string
		err    error
	)
	switch n {
	case 1:
		title = "Table 1: Partitioning options leading to maximum adaptiveness"
		chains, err = paper.Table1()
	case 2:
		title = "Table 2: Partitioning options leading to some degrees of adaptiveness"
		chains = paper.Table2()
	case 3:
		title = "Table 3: Partitioning options leading to deterministic routing"
		chains, err = paper.Table3()
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	mesh := topology.NewMesh(5, 5)
	cols := 3
	if n == 2 {
		cols = 2
	}
	for i, c := range chains {
		rep := cdg.VerifyChain(mesh, c)
		status := "ok"
		if !rep.Acyclic {
			status = "CYCLIC"
		}
		fmt.Fprintf(w, "  %-36s [%s]", arrowOnly(c), status)
		if (i+1)%cols == 0 {
			fmt.Fprintln(w)
		}
	}
	if len(chains)%cols != 0 {
		fmt.Fprintln(w)
	}
	return nil
}

// arrowOnly renders a chain without partition names, as the paper's
// tables do: "X+X-Y+ -> Y-".
func arrowOnly(c *core.Chain) string {
	var b strings.Builder
	for i, p := range c.Partitions() {
		if i > 0 {
			b.WriteString(" -> ")
		}
		for _, cls := range p.Channels() {
			b.WriteString(cls.Plain())
		}
	}
	return b.String()
}

func renderTable4(w io.Writer) {
	fmt.Fprintln(w, "Table 4: Allowable turns in Odd-Even")
	chain := paper.Table4Chain()
	fmt.Fprintf(w, "  partitioning: %s\n", chain.PlainString())
	for _, row := range paper.Table4Expected() {
		fmt.Fprintf(w, "  %-14s 90-degree: %-22s U/I: %s\n", row.Label, row.Turns90, row.UITurns)
		if row.Notes != "" {
			fmt.Fprintf(w, "  %14s note: %s\n", "", row.Notes)
		}
	}
	mesh := topology.NewMesh(6, 6)
	rep := cdg.VerifyChain(mesh, chain)
	conn := cdg.Connectivity(mesh, nil, chain.AllTurns(), true)
	fmt.Fprintf(w, "  verification: %s; %s\n", rep, conn)
}

func renderTable5(w io.Writer) {
	fmt.Fprintln(w, "Table 5: Allowable turns in the partially connected 3D design")
	chain := paper.Table5Chain()
	fmt.Fprintf(w, "  partitioning: %s\n", chain)
	vcs := []int{1, 2, 1}
	parts := chain.Partitions()
	rows := paper.Table5Expected()
	printRow := func(label string, turns []core.Turn) {
		strs := make([]string, len(turns))
		for i, t := range turns {
			strs[i] = paper.FormatTurnForDesign(t, vcs)
		}
		fmt.Fprintf(w, "  %-14s %s\n", label, strings.Join(strs, ", "))
	}
	printRow(rows[0].Label, parts[0].InnerTurns(false).Turns())
	printRow(rows[1].Label, parts[1].InnerTurns(false).Turns())
	var t3 []core.Turn
	for _, t := range chain.AllTurns().BySource(core.ByTheorem3) {
		if t.Kind() == core.Turn90 {
			t3 = append(t3, t)
		}
	}
	printRow(rows[2].Label, t3)
	net := topology.NewPartialMesh3D(4, 4, 3, [][2]int{{0, 0}, {3, 3}})
	cfg := cdg.VCConfigFor(3, chain.Channels())
	rep := cdg.VerifyTurnSet(net, cfg, chain.AllTurns())
	fmt.Fprintf(w, "  verification on %s: %s\n", net, rep)
	fmt.Fprintf(w, "  baseline Elevator-First turns (16): %s\n", paper.ElevatorFirstTurns)
}
