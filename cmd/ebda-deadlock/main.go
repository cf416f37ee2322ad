// Command ebda-deadlock runs the two static deadlock analyses on a design:
// the Dally cycle check on the channel dependency graph, and the sharper
// deadlock-configuration (knot) search that distinguishes escape-protected
// cyclic designs (Duato-style) from genuinely deadlock-capable ones.
//
// Usage examples:
//
//	ebda-deadlock -chain "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]" -mesh 6x6
//	ebda-deadlock -alg duato -mesh 4x4
//	ebda-deadlock -alg unrestricted -mesh 4x4     (prints the configuration)
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
	"ebda/internal/deadlock"
	"ebda/internal/duato"
	"ebda/internal/routing"
	"ebda/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams injected. It
// returns the exit status: 0 when the design is deadlock-free (acyclic, or
// cyclic but escape-protected), 1 when it is deadlock-capable, 2 on usage
// or input errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebda-deadlock", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chainSpec := fs.String("chain", "", "partition chain to analyse")
	algName := fs.String("alg", "", "named algorithm: xy, odd-even, planar, duato, duato-torus, dateline, unrestricted")
	meshSpec := fs.String("mesh", "6x6", "mesh sizes, e.g. 6x6 or 4x4x4")
	torus := fs.Bool("torus", false, "use a torus instead of a mesh")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ebda-deadlock:", err)
		return 2
	}

	sizes, err := parseSizes(*meshSpec)
	if err != nil {
		return fail(err)
	}
	var net *topology.Network
	if *torus {
		net = topology.NewTorus(sizes...)
	} else {
		net = topology.NewMesh(sizes...)
	}

	var (
		alg routing.Algorithm
		vcs cdg.VCConfig
	)
	switch {
	case *chainSpec != "" && *algName != "":
		return fail(fmt.Errorf("use either -chain or -alg"))
	case *chainSpec != "":
		chain, err := core.ParseChain(*chainSpec)
		if err != nil {
			return fail(err)
		}
		fc := routing.NewFromChain("chain", chain, net.Dims())
		alg, vcs = fc, cdg.VCConfig(fc.VCs())
		fmt.Fprintf(stdout, "design: %s\n", chain)
	case *algName != "":
		alg, vcs, err = buildAlg(*algName, net)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "design: %s\n", alg.Name())
	default:
		return fail(fmt.Errorf("one of -chain or -alg is required"))
	}

	rep := routing.Verify(net, vcs, alg)
	fmt.Fprintf(stdout, "dependency graph: %s\n", rep)
	cfg := deadlock.Find(net, vcs, alg)
	fmt.Fprintln(stdout, cfg)
	switch {
	case rep.Acyclic:
		fmt.Fprintln(stdout, "verdict: deadlock-free by Dally's condition (acyclic dependency graph)")
		return 0
	case cfg.Empty():
		fmt.Fprintln(stdout, "verdict: cyclic dependency graph but no deadlock configuration —")
		fmt.Fprintln(stdout, "         escape-protected in Duato's sense (every circular wait has an exit)")
		return 0
	default:
		fmt.Fprintln(stdout, "verdict: DEADLOCK-CAPABLE (concrete configuration above)")
		return 1
	}
}

func buildAlg(name string, net *topology.Network) (routing.Algorithm, cdg.VCConfig, error) {
	switch name {
	case "xy":
		return routing.NewXY(), nil, nil
	case "odd-even", "oe":
		return routing.NewOddEven(), nil, nil
	case "planar", "planar-adaptive":
		p := routing.NewPlanarAdaptive()
		return p, cdg.VCConfig(p.VCsPerDim(net)), nil
	case "duato":
		d := duato.New()
		return d, cdg.VCConfig(d.VCsPerDim(net)), nil
	case "duato-torus":
		d := duato.NewTorus()
		return d, cdg.VCConfig(d.VCsPerDim(net)), nil
	case "dateline":
		d := routing.NewDatelineTorus()
		return d, cdg.VCConfig(d.VCsPerDim(net)), nil
	case "unrestricted":
		return routing.NewUnrestricted(), nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q", name)
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
