// Command ebda-verify is the verification front end. With flags first it
// checks a partition chain or turn list on a concrete network: Theorem
// 1/3 validity, channel-dependency-graph acyclicity with the full Theorem
// 1-3 turn set, connectivity, and (optionally) the adaptiveness
// measurement. Its modes cover the other properties:
//
//   - deadlock: the Dally cycle check plus the deadlock-configuration
//     (knot) search, for chains and the named routing algorithms;
//   - graph import|verify|export: arbitrary channel dependence graphs in
//     the constellation interchange format or its canonical JSON variant,
//     verified in any of the loop, liveness, escape and subrel modes.
//
// Usage examples:
//
//	ebda-verify -chain "PA[X+ X- Y-] -> PB[Y+]" -mesh 8x8
//	ebda-verify -chain "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]" -mesh 8x8 -adaptiveness
//	ebda-verify -chain "PA[X+ Y+] -> PB[X- Y-]" -torus 6x6
//	ebda-verify -turns "X+>Y+,X+>Y-,X->Y+,X->Y-" -mesh 8x8
//	ebda-verify -chain "..." -obs :8080 -obs-json run.json -cachestats
//	ebda-verify deadlock -alg duato -mesh 4x4
//	ebda-verify deadlock -alg unrestricted -torus 4x4   (prints the configuration)
//	ebda-verify graph verify -mode=escape -escape 4 testdata/graphio/escape-ok.txt
//	ebda-verify graph export -json testdata/graphio/escape-ok.txt
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/obs"
	"ebda/internal/obs/obshttp"
	"ebda/internal/topology"
)

const usage = `usage:
  ebda-verify [-chain SPEC | -chain-file FILE | -turns LIST] [-mesh|-torus SIZES] [flags]
                                            verify a turn-model design (default 8x8 mesh)
  ebda-verify deadlock [-chain SPEC | -alg NAME] [-mesh|-torus SIZES]
                                            cycle check plus deadlock-configuration search
                                            (default 6x6 mesh)
  ebda-verify graph import FILE             parse and summarise a dependency graph
  ebda-verify graph verify [-mode=MODE] [-escape IDS] FILE
                                            prove MODE (loop|liveness|escape|subrel)
  ebda-verify graph export [-json] [-o FILE] FILE
                                            re-emit the canonical form
FILE may be - for stdin; both the text and JSON graph encodings are accepted.
Run a mode with -h for its flags.
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams injected: one
// dispatch over the modes. Every mode returns 0 when its property holds,
// 1 when it is violated, and 2 on usage or input errors.
func run(args []string, stdout, stderr io.Writer) int {
	mode := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
		if mode == "graph" && len(args) > 0 {
			mode, args = "graph "+args[0], args[1:]
		}
	}
	switch mode {
	case "":
		return runDesign(args, stdout, stderr)
	case "deadlock":
		return runDeadlock(args, stdout, stderr)
	case "graph import":
		return runGraphImport(args, stdout, stderr)
	case "graph verify":
		return runGraphVerify(args, stdout, stderr)
	case "graph export":
		return runGraphExport(args, stdout, stderr)
	case "help":
		fmt.Fprint(stdout, usage)
		return 0
	}
	fmt.Fprintf(stderr, "ebda-verify: unknown mode %q\n%s", mode, usage)
	return 2
}

// fail reports an input error and returns its exit status.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "ebda-verify:", err)
	return 2
}

// newFlags returns the flag set of one mode; -h and a parse error print
// the command's usage and then the mode's flags.
func newFlags(mode string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "%sflags of %s:\n", usage, mode)
		fs.PrintDefaults()
	}
	return fs
}

// parseFlags parses args into fs and requires nargs positional
// arguments. When it reports !ok the mode stops with code: 0 after -h,
// 2 on a usage error.
func parseFlags(fs *flag.FlagSet, args []string, nargs int) (code int, ok bool) {
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	case err != nil:
		return 2, false
	case fs.NArg() != nargs:
		fmt.Fprintf(fs.Output(), "ebda-verify: %s takes %d argument(s), got %q\n", fs.Name(), nargs, fs.Args())
		return 2, false
	}
	return 0, true
}

// networkFlags registers -mesh and -torus, the network every design mode
// verifies on. The returned function builds the chosen network, or a
// mesh of the default sizes when neither flag is set.
func networkFlags(fs *flag.FlagSet) func(def ...int) (*topology.Network, error) {
	mesh := fs.String("mesh", "", "mesh sizes, e.g. 8x8 or 4x4x4")
	torus := fs.String("torus", "", "torus sizes, e.g. 6x6")
	return func(def ...int) (*topology.Network, error) {
		build, spec := topology.NewMesh, *mesh
		switch {
		case *mesh != "" && *torus != "":
			return nil, errors.New("use either -mesh or -torus, not both")
		case *torus != "":
			build, spec = topology.NewTorus, *torus
		case *mesh == "":
			return topology.NewMesh(def...), nil
		}
		sizes, err := topology.ParseSizes(spec)
		if err != nil {
			return nil, err
		}
		return build(sizes...), nil
	}
}

// runDesign verifies a partition chain or turn list: 0 when the design
// verifies, 1 when it is cyclic or disconnected.
func runDesign(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("ebda-verify", stderr)
	chainSpec := fs.String("chain", "", "partition chain, e.g. \"PA[X+ X- Y-] -> PB[Y+]\"")
	chainFile := fs.String("chain-file", "", "JSON file holding the design (see core.Chain's JSON encoding)")
	turnSpec := fs.String("turns", "", "explicit turn list, e.g. \"X+>Y+,X+>Y-\" (alternative to -chain)")
	network := networkFlags(fs)
	adapt := fs.Bool("adaptiveness", false, "also measure minimal-path adaptiveness")
	connectivity := fs.Bool("connectivity", true, "check all-pairs reachability (minimal routing)")
	noUI := fs.Bool("no-ui-turns", false, "exclude Theorem-2/3 U- and I-turns")
	dot := fs.String("dot", "", "write the dependency graph in Graphviz format to this file")
	witness := fs.Bool("witness", false, "print the topological channel numbering (the deadlock-freedom witness)")
	obsAddr := fs.String("obs", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	obsJSON := fs.String("obs-json", "", "write the end-of-run metrics snapshot (JSON) to this file")
	cacheStats := fs.Bool("cachestats", false, "print this run's verify-cache counter deltas on exit")
	if code, ok := parseFlags(fs, args, 0); !ok {
		return code
	}

	finishObs, err := obshttp.Setup(*obsAddr, *obsJSON)
	if err != nil {
		return fail(stderr, err)
	}
	// Snapshot before the run so -cachestats reports this invocation's
	// traffic alone, not process-lifetime totals.
	obsBefore := obs.Default.Snapshot()

	net, err := network(8, 8)
	if err != nil {
		return fail(stderr, err)
	}

	if *chainFile != "" {
		if *chainSpec != "" {
			return fail(stderr, errors.New("use either -chain or -chain-file, not both"))
		}
		data, err := os.ReadFile(*chainFile)
		if err != nil {
			return fail(stderr, err)
		}
		var c core.Chain
		if err := json.Unmarshal(data, &c); err != nil {
			return fail(stderr, err)
		}
		*chainSpec = c.String()
	}

	var (
		ts  *core.TurnSet
		vcs cdg.VCConfig
	)
	switch {
	case *chainSpec != "" && *turnSpec != "":
		return fail(stderr, errors.New("use either -chain or -turns, not both"))
	case *chainSpec != "":
		chain, err := core.ParseChain(*chainSpec)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "chain: %s\n", chain)
		opts := core.DefaultTurnOptions
		if *noUI {
			opts.UITurns = false
		}
		ts = chain.Turns(opts)
		vcs = cdg.VCConfigFor(net.Dims(), chain.Channels())
	case *turnSpec != "":
		turns, err := core.ParseTurnList(*turnSpec)
		if err != nil {
			return fail(stderr, err)
		}
		ts = core.NewTurnSet()
		for _, t := range turns {
			ts.Add(t.From, t.To, core.ByTheorem1)
		}
		vcs = cdg.VCConfigFor(net.Dims(), ts.Classes())
	default:
		return fail(stderr, errors.New("one of -chain or -turns is required"))
	}

	n90, nU, nI := ts.Counts()
	fmt.Fprintf(stdout, "turn set: %d 90-degree, %d U, %d I\n", n90, nU, nI)
	// The verdict comes from the verification engine's cached entry point,
	// which runs the pooled build + Kahn peel.
	rep := cdg.VerifyTurnSetCached(net, vcs, ts)
	fmt.Fprintln(stdout, rep)
	ok := rep.Acyclic
	if *dot != "" || *witness {
		// Diagnostics need the concrete graph; the verdict above still
		// comes from the engine, this build only renders it.
		g := cdg.BuildFromTurnSet(net, vcs, ts)
		if *dot != "" {
			if err := os.WriteFile(*dot, []byte(g.DOT("ebda")), 0o644); err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintf(stdout, "dependency graph written to %s\n", *dot)
		}
		if *witness {
			order, err := g.TopoOrder()
			if err != nil {
				fmt.Fprintln(stdout, "no witness:", err)
			} else {
				fmt.Fprintln(stdout, "deadlock-freedom witness (ascending channel numbering):")
				for i, ch := range order {
					fmt.Fprintf(stdout, "  %4d: %s\n", i+1, ch)
				}
			}
		}
	}
	if *connectivity {
		conn := cdg.Connectivity(net, vcs, ts, true)
		fmt.Fprintf(stdout, "connectivity: %s\n", conn)
		ok = ok && conn.Connected()
	}
	if *adapt {
		ad, err := cdg.Adaptiveness(net, vcs, ts)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "%s\n", ad)
	}
	if *cacheStats {
		if err := obshttp.WriteCacheDelta(stdout, obs.Default.Snapshot().Sub(obsBefore)); err != nil {
			return fail(stderr, err)
		}
	}
	if err := finishObs(); err != nil {
		return fail(stderr, err)
	}
	if !ok {
		return 1
	}
	return 0
}
