// Command ebda-draw renders reproduction artifacts as SVG: turn diagrams
// in the style of the paper's figures, and per-node traffic heatmaps from
// simulator runs.
//
// Usage examples:
//
//	ebda-draw -chain "PA[X+ X- Y-] -> PB[Y+]" -o northlast.svg
//	ebda-draw -chain "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]" -o dyxy.svg
//	ebda-draw -heatmap -alg xy -pattern transpose -mesh 8x8 -o heat.svg
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ebda/internal/algs"
	"ebda/internal/core"
	"ebda/internal/sim"
	"ebda/internal/topology"
	"ebda/internal/traffic"
	"ebda/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams injected. It
// returns 0 on success and 2 on usage, input or output errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebda-draw", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chainSpec := fs.String("chain", "", "partition chain to draw as a turn diagram")
	out := fs.String("o", "", "output SVG file (stdout when empty)")
	heatmap := fs.Bool("heatmap", false, "render a traffic heatmap instead of a turn diagram")
	algName := fs.String("alg", "xy", "heatmap: routing algorithm: "+algs.Usage())
	patternName := fs.String("pattern", "uniform", "heatmap: traffic pattern")
	meshSpec := fs.String("mesh", "8x8", "heatmap: mesh sizes")
	rate := fs.Float64("rate", 0.25, "heatmap: injection rate (flits/node/cycle)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var (
		svg string
		err error
	)
	switch {
	case *heatmap:
		svg, err = renderHeatmap(*meshSpec, *algName, *patternName, *rate)
	case *chainSpec != "":
		var chain *core.Chain
		chain, err = core.ParseChain(*chainSpec)
		if err == nil {
			svg, err = viz.TurnDiagram(chain.AllTurns())
		}
	default:
		err = errors.New("one of -chain or -heatmap is required")
	}
	if err == nil && *out != "" {
		err = os.WriteFile(*out, []byte(svg), 0o644)
		svg = fmt.Sprintf("wrote %s (%d bytes)\n", *out, len(svg))
	}
	if err != nil {
		fmt.Fprintln(stderr, "ebda-draw:", err)
		return 2
	}
	io.WriteString(stdout, svg)
	return 0
}

func renderHeatmap(meshSpec, algName, patternName string, rate float64) (string, error) {
	sizes, err := topology.ParseSizes(meshSpec)
	if err != nil {
		return "", err
	}
	net := topology.NewMesh(sizes...)
	pattern, err := traffic.ByName(patternName)
	if err != nil {
		return "", err
	}
	alg, vcs, err := algs.ByName(algName, net)
	if err != nil {
		return "", err
	}
	s := sim.New(sim.Config{
		Net: net, Alg: alg, VCs: vcs,
		InjectionRate: rate, Pattern: pattern, Seed: 1,
		Warmup: 500, Measure: 2000, Drain: 500,
	})
	res := s.Run()
	if res.Deadlocked {
		return "", fmt.Errorf("simulation deadlocked: %s", res)
	}
	return viz.Heatmap(net, s.NodeLoad())
}
