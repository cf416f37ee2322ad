// Command ebda-design runs the Section-5 design methodology for a given
// channel budget: it derives the family of deadlock-free routing designs
// (Algorithm 1 over arrangements, Algorithm 2 reorderings, the no-VC
// exceptional case, the split ladder down to deterministic routing),
// verifies each on a mesh, and reports adaptiveness so a designer can pick
// an operating point.
//
// Usage examples:
//
//	ebda-design -vcs 1,1                 # the classic 2D four-channel space
//	ebda-design -vcs 1,2 -mesh 5x5       # the six-channel fully adaptive space
//	ebda-design -vcs 3,2,3 -mesh 3x3x3   # the paper's Section 5 example
//	ebda-design -n 3                     # minimum-channel fully adaptive design
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/cost"
	"ebda/internal/partstrat"
	"ebda/internal/synth"
	"ebda/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams injected. It
// returns 0 on success and 2 on usage or input errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebda-design", flag.ContinueOnError)
	fs.SetOutput(stderr)
	vcSpec := fs.String("vcs", "", "per-dimension VC counts, e.g. 1,2 or 3,2,3")
	minN := fs.Int("n", 0, "instead of -vcs: build the minimum-channel fully adaptive design for n dimensions")
	meshSpec := fs.String("mesh", "", "verification mesh (default 5x5 / 3x3x3 by dimension)")
	ladder := fs.Bool("ladder", false, "also print the split ladder (reduced-adaptiveness variants)")
	maxOptions := fs.Int("max", 24, "cap on printed options")
	costTable := fs.Bool("cost", false, "print the router resource-cost comparison table")
	pairings := fs.Bool("pairings", false, "include Arrangement-3 D-pair re-pairings of the leading set")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var err error
	switch {
	case *costTable:
		err = printCostTable(stdout)
	case *minN > 0:
		err = designMin(stdout, *minN, *meshSpec)
	case *vcSpec != "":
		err = explore(stdout, *vcSpec, *meshSpec, *ladder, *pairings, *maxOptions)
	default:
		err = errors.New("-vcs or -n required")
	}
	if err != nil {
		fmt.Fprintln(stderr, "ebda-design:", err)
		return 2
	}
	return 0
}

func designMin(w io.Writer, n int, meshSpec string) error {
	chain, err := partstrat.MinFullyAdaptiveChain(n)
	if err != nil {
		return err
	}
	net, err := defaultMesh(n, meshSpec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "minimum-channel fully adaptive design for n=%d (%d channels, formula %d):\n",
		n, len(chain.Channels()), core.MinChannelsFullyAdaptive(n))
	for _, p := range chain.Partitions() {
		fmt.Fprintf(w, "  %s\n", p)
	}
	fmt.Fprintf(w, "  VCs per dimension: %v\n", partstrat.VCRequirements(n))
	report(w, net, chain, true)
	return nil
}

func explore(w io.Writer, vcSpec, meshSpec string, ladder, pairings bool, maxOptions int) error {
	vcs, err := parseVCs(vcSpec)
	if err != nil {
		return err
	}
	net, err := defaultMesh(len(vcs), meshSpec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "channel budget: %v VCs per dimension (%d channels), verifying on %s\n\n",
		vcs, 2*sum(vcs), net)

	// Algorithm 2 over the canonical arrangement (optionally across the
	// Arrangement-3 D-pair re-pairings of the leading set).
	arr := partstrat.ArrangementFor(vcs)
	var chains []*core.Chain
	if pairings {
		chains, err = partstrat.DeriveWithPairings(arr)
	} else {
		chains, err = partstrat.Derive(arr)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Algorithm 1/2 options (%d):\n", len(chains))
	for i, c := range chains {
		if i >= maxOptions {
			fmt.Fprintf(w, "  ... %d more\n", len(chains)-maxOptions)
			break
		}
		report(w, net, c, false)
	}

	// The exceptional no-VC case.
	if allOnes(vcs) {
		exc := partstrat.ExceptionalCase(len(vcs))
		fmt.Fprintf(w, "\nexceptional-case options (%d):\n", len(exc))
		for i, c := range exc {
			if i >= maxOptions {
				break
			}
			report(w, net, c, false)
		}
	}

	if ladder && len(chains) > 0 {
		fmt.Fprintln(w, "\nsplit ladder of the first option (adaptiveness vs partition count):")
		base := chains[0]
		for _, c := range []*core.Chain{base, partstrat.SplitLast(base), partstrat.FullSplit(base)} {
			report(w, net, c, false)
		}
	}
	return nil
}

func report(w io.Writer, net *topology.Network, chain *core.Chain, detail bool) {
	vcs := cdg.VCConfigFor(net.Dims(), chain.Channels())
	rep := cdg.VerifyTurnSet(net, vcs, chain.AllTurns())
	status := "ACYCLIC"
	if !rep.Acyclic {
		status = "CYCLIC(!)"
	}
	ad, err := cdg.Adaptiveness(net, vcs, chain.AllTurns())
	adStr := "n/a"
	if err == nil {
		adStr = fmt.Sprintf("%.4f", ad.Degree())
		if ad.FullyAdaptive() {
			adStr += " (fully adaptive)"
		}
	}
	fmt.Fprintf(w, "  %-52s %-9s adaptiveness %s\n", chain.PlainString(), status, adStr)
	if detail {
		n90, nU, nI := chain.AllTurns().Counts()
		fmt.Fprintf(w, "    turns: %d 90-degree, %d U, %d I; %s\n", n90, nU, nI, rep)
	}
}

// printCostTable renders the router resource comparison of the standard
// 2D designs (the Section 5.4 / resource-trade-off discussion).
func printCostTable(w io.Writer) error {
	net := topology.NewMesh(5, 5)
	rows := []struct {
		name, spec string
		vcs        []int
	}{
		{"xy", "PA[X+] -> PB[X-] -> PC[Y+] -> PD[Y-]", []int{1, 1}},
		{"west-first", "PA[X-] -> PB[X+ Y+ Y-]", []int{1, 1}},
		{"north-last", "PA[X+ X- Y-] -> PB[Y+]", []int{1, 1}},
		{"negative-first", "PA[X- Y-] -> PB[X+ Y+]", []int{1, 1}},
		{"dyxy (6ch)", "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]", []int{1, 2}},
		{"fig7c (6ch)", "PA[X1+ X1- Y1+] -> PB[X2+ X2- Y1-]", []int{2, 1}},
	}
	var comps []cost.Comparison
	for _, r := range rows {
		chain := core.MustParseChain(r.spec)
		ad, err := cdg.Adaptiveness(net, cdg.VCConfig(r.vcs), chain.AllTurns())
		if err != nil {
			return err
		}
		router := cost.Estimate(r.vcs, cost.Params{})
		if logic, err := synth.Generate(r.name, chain, 2); err == nil {
			router.RoutingComparators = logic.Comparisons()
		}
		comps = append(comps, cost.Comparison{
			Name: r.name, VCs: r.vcs,
			Router:       router,
			Adaptiveness: ad.Degree(),
		})
	}
	fmt.Fprint(w, cost.Table(comps))
	fmt.Fprintln(w, "\nrouting-unit comparators (synthesized, Section 5.4):")
	for _, c := range comps {
		fmt.Fprintf(w, "  %-16s %d\n", c.Name, c.Router.RoutingComparators)
	}
	return nil
}

func defaultMesh(dims int, spec string) (*topology.Network, error) {
	if spec != "" {
		sizes, err := topology.ParseSizes(spec)
		if err != nil {
			return nil, err
		}
		return topology.NewMesh(sizes...), nil
	}
	sizes := make([]int, dims)
	for i := range sizes {
		if dims <= 2 {
			sizes[i] = 5
		} else if dims == 3 {
			sizes[i] = 3
		} else {
			sizes[i] = 2
		}
	}
	return topology.NewMesh(sizes...), nil
}

func parseVCs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad VC count %q", p)
		}
		out[i] = v
	}
	if len(out) < 1 {
		return nil, fmt.Errorf("need at least one dimension")
	}
	return out, nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func allOnes(xs []int) bool {
	for _, x := range xs {
		if x != 1 {
			return false
		}
	}
	return true
}
