// Command ebda-synth synthesizes the routing-unit logic of a partition
// chain (Section 5.4): the if-else decision rules over destination offsets
// and input channel, their implementation cost, and optionally compilable
// Go source.
//
// Usage examples:
//
//	ebda-synth -chain "PA[X+] -> PB[X-] -> PC[Y+] -> PD[Y-]" -name xy
//	ebda-synth -chain "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]" -go
//	ebda-synth -compare
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ebda/internal/core"
	"ebda/internal/synth"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams injected. It
// returns 0 on success and 2 on usage or input errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebda-synth", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chainSpec := fs.String("chain", "", "partition chain to synthesize")
	name := fs.String("name", "design", "design name")
	dims := fs.Int("dims", 2, "network dimensions")
	emitGo := fs.Bool("go", false, "emit compilable Go source instead of pseudo-code")
	compare := fs.Bool("compare", false, "print the Section 5.4 cost comparison table")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var err error
	switch {
	case *compare:
		err = printComparison(stdout)
	case *chainSpec != "":
		err = synthesize(stdout, *chainSpec, *name, *dims, *emitGo)
	default:
		err = errors.New("-chain or -compare required")
	}
	if err != nil {
		fmt.Fprintln(stderr, "ebda-synth:", err)
		return 2
	}
	return 0
}

func synthesize(w io.Writer, spec, name string, dims int, emitGo bool) error {
	chain, err := core.ParseChain(spec)
	if err != nil {
		return err
	}
	logic, err := synth.Generate(name, chain, dims)
	if err != nil {
		return err
	}
	if emitGo {
		fmt.Fprint(w, logic.GoSource("route"+name))
	} else {
		fmt.Fprint(w, logic.Pseudo())
	}
	fmt.Fprintf(w, "\ncost: %d rules, %d comparisons (%d input cases merged)\n",
		logic.Leaves(), logic.Comparisons(), logic.Merged())
	return nil
}

func printComparison(w io.Writer) error {
	designs := []struct{ name, spec string }{
		{"xy", "PA[X+] -> PB[X-] -> PC[Y+] -> PD[Y-]"},
		{"west-first", "PA[X-] -> PB[X+ Y+ Y-]"},
		{"north-last", "PA[X+ X- Y-] -> PB[Y+]"},
		{"negative-first", "PA[X- Y-] -> PB[X+ Y+]"},
		{"fully-adaptive", "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"},
	}
	fmt.Fprintf(w, "%-16s %6s %6s %12s %8s\n", "design", "turns", "rules", "comparisons", "merged")
	for _, d := range designs {
		chain := core.MustParseChain(d.spec)
		n90, _, _ := chain.Turns90().Counts()
		logic, err := synth.Generate(d.name, chain, 2)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-16s %6d %6d %12d %8d\n",
			d.name, n90, logic.Leaves(), logic.Comparisons(), logic.Merged())
	}
	return nil
}
