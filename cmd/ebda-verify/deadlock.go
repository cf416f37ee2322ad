package main

import (
	"errors"
	"fmt"
	"io"

	"ebda/internal/algs"
	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/deadlock"
	"ebda/internal/routing"
)

// runDeadlock is the deadlock mode: the Dally cycle check on the channel
// dependency graph, then the sharper deadlock-configuration (knot) search
// that distinguishes escape-protected cyclic designs (Duato-style) from
// genuinely deadlock-capable ones. It returns 0 when the design is
// deadlock-free (acyclic, or cyclic but escape-protected) and 1 when it
// is deadlock-capable.
func runDeadlock(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("deadlock", stderr)
	chainSpec := fs.String("chain", "", "partition chain to analyse")
	algName := fs.String("alg", "", "named algorithm: "+algs.Usage())
	network := networkFlags(fs)
	if code, ok := parseFlags(fs, args, 0); !ok {
		return code
	}
	net, err := network(6, 6)
	if err != nil {
		return fail(stderr, err)
	}

	var (
		alg routing.Algorithm
		vcs cdg.VCConfig
	)
	switch {
	case *chainSpec != "" && *algName != "":
		return fail(stderr, errors.New("use either -chain or -alg"))
	case *chainSpec != "":
		chain, err := core.ParseChain(*chainSpec)
		if err != nil {
			return fail(stderr, err)
		}
		fc := routing.NewFromChain("chain", chain, net.Dims())
		alg, vcs = fc, cdg.VCConfig(fc.VCs())
		fmt.Fprintf(stdout, "design: %s\n", chain)
	case *algName != "":
		alg, vcs, err = algs.ByName(*algName, net)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "design: %s\n", alg.Name())
	default:
		return fail(stderr, errors.New("one of -chain or -alg is required"))
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
