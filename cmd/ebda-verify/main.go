// Command ebda-verify checks a user-supplied partition chain on a concrete
// network: Theorem 1/3 validity, channel-dependency-graph acyclicity with
// the full Theorem 1-3 turn set, connectivity, and (optionally) the
// adaptiveness measurement.
//
// Usage examples:
//
//	ebda-verify -chain "PA[X+ X- Y-] -> PB[Y+]" -mesh 8x8
//	ebda-verify -chain "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]" -mesh 8x8 -adaptiveness
//	ebda-verify -chain "PA[X+ Y+] -> PB[X- Y-]" -torus 6x6
//	ebda-verify -turns "X+>Y+,X+>Y-,X->Y+,X->Y-" -mesh 8x8
//	ebda-verify -chain "..." -obs :8080 -obs-json run.json -cachestats
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/obs"
	"ebda/internal/obs/obshttp"
	"ebda/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams injected. It
// returns the exit status: 0 when the design verifies, 1 when it is cyclic
// or disconnected, 2 on usage or input errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebda-verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chainSpec := fs.String("chain", "", "partition chain, e.g. \"PA[X+ X- Y-] -> PB[Y+]\"")
	chainFile := fs.String("chain-file", "", "JSON file holding the design (see core.Chain's JSON encoding)")
	turnSpec := fs.String("turns", "", "explicit turn list, e.g. \"X+>Y+,X+>Y-\" (alternative to -chain)")
	meshSpec := fs.String("mesh", "", "mesh sizes, e.g. 8x8 or 4x4x4")
	torusSpec := fs.String("torus", "", "torus sizes, e.g. 6x6")
	adapt := fs.Bool("adaptiveness", false, "also measure minimal-path adaptiveness")
	connectivity := fs.Bool("connectivity", true, "check all-pairs reachability (minimal routing)")
	noUI := fs.Bool("no-ui-turns", false, "exclude Theorem-2/3 U- and I-turns")
	dot := fs.String("dot", "", "write the dependency graph in Graphviz format to this file")
	witness := fs.Bool("witness", false, "print the topological channel numbering (the deadlock-freedom witness)")
	obsAddr := fs.String("obs", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	obsJSON := fs.String("obs-json", "", "write the end-of-run metrics snapshot (JSON) to this file")
	cacheStats := fs.Bool("cachestats", false, "print this run's verify-cache counter deltas on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ebda-verify:", err)
		return 2
	}

	finishObs, err := obshttp.Setup(*obsAddr, *obsJSON)
	if err != nil {
		return fail(err)
	}
	// Snapshot before the run so -cachestats reports this invocation's
	// traffic alone, not process-lifetime totals.
	obsBefore := obs.Default.Snapshot()

	net, err := buildNet(*meshSpec, *torusSpec)
	if err != nil {
		return fail(err)
	}

	if *chainFile != "" {
		if *chainSpec != "" {
			return fail(fmt.Errorf("use either -chain or -chain-file, not both"))
		}
		data, err := os.ReadFile(*chainFile)
		if err != nil {
			return fail(err)
		}
		var c core.Chain
		if err := json.Unmarshal(data, &c); err != nil {
			return fail(err)
		}
		*chainSpec = c.String()
	}

	var (
		ts  *core.TurnSet
		vcs cdg.VCConfig
	)
	switch {
	case *chainSpec != "" && *turnSpec != "":
		return fail(fmt.Errorf("use either -chain or -turns, not both"))
	case *chainSpec != "":
		chain, err := core.ParseChain(*chainSpec)
		if err != nil {
			return fail(err)
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
			return fail(err)
		}
		ts = core.NewTurnSet()
		for _, t := range turns {
			ts.Add(t.From, t.To, core.ByTheorem1)
		}
		vcs = cdg.VCConfigFor(net.Dims(), ts.Classes())
	default:
		return fail(fmt.Errorf("one of -chain or -turns is required"))
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
				return fail(err)
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
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", ad)
	}
	if *cacheStats {
		if err := printCacheDelta(stdout, obsBefore); err != nil {
			return fail(err)
		}
	}
	if err := finishObs(); err != nil {
		return fail(err)
	}
	if !ok {
		return 1
	}
	return 0
}

// printCacheDelta renders the verify-cache series recorded since before,
// through the shared snapshot renderer, plus the derived hit rate.
func printCacheDelta(w io.Writer, before obs.Snapshot) error {
	delta := obs.Default.Snapshot().Sub(before).Filter("ebda_verify_cache")
	fmt.Fprintln(w, "verify cache (this run):")
	if err := delta.WriteText(w); err != nil {
		return err
	}
	hits := delta.Counter("ebda_verify_cache_hits_total")
	misses := delta.Counter("ebda_verify_cache_misses_total")
	if hits+misses > 0 {
		fmt.Fprintf(w, "  hit rate: %.1f%% (%d/%d)\n",
			float64(hits)/float64(hits+misses)*100, hits, hits+misses)
	}
	return nil
}

func buildNet(mesh, torus string) (*topology.Network, error) {
	switch {
	case mesh != "" && torus != "":
		return nil, fmt.Errorf("use either -mesh or -torus, not both")
	case mesh != "":
		sizes, err := parseSizes(mesh)
		if err != nil {
			return nil, err
		}
		return topology.NewMesh(sizes...), nil
	case torus != "":
		sizes, err := parseSizes(torus)
		if err != nil {
			return nil, err
		}
		return topology.NewTorus(sizes...), nil
	default:
		return topology.NewMesh(8, 8), nil
	}
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad size %q", p)
		}
		out[i] = v
	}
	return out, nil
}
