// Command ebda-sim sweeps injection rates through the wormhole simulator
// for one or more routing algorithms and prints latency/throughput series
// (the extension experiment X01).
//
// Usage examples:
//
//	ebda-sim -mesh 8x8 -algs xy,dyxy,duato -rates 0.05:0.40:0.05
//	ebda-sim -mesh 6x6 -algs odd-even -pattern transpose -packet 8
//	ebda-sim -mesh 8x8 -algs unrestricted -rates 0.4:0.6:0.1   (deadlocks)
//	ebda-sim -mesh 8x8 -algs dyxy -seeds 8 -obs :8080        (live /metrics)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	// Linked for its metric registrations: a live -obs endpoint shows the
	// whole engine's series (verify cache, workspace pool, phases) even
	// though a pure sweep only drives the simulator.
	_ "ebda/internal/cdg"

	"ebda/internal/algs"
	"ebda/internal/obs/obshttp"
	"ebda/internal/routing"
	"ebda/internal/sim"
	"ebda/internal/topology"
	"ebda/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams injected. It
// returns 0 once the sweep has printed (a deadlocked run is a result,
// not an error) and 2 on usage or input errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebda-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	meshSpec := fs.String("mesh", "8x8", "mesh sizes, e.g. 8x8")
	algNames := fs.String("algs", "xy,dyxy", "comma-separated algorithms: "+algs.Usage())
	rateSpec := fs.String("rates", "0.05:0.40:0.05", "rate sweep lo:hi:step (flits/node/cycle)")
	patternName := fs.String("pattern", "uniform", "traffic pattern: uniform, transpose, bit-complement, neighbor, hotspot")
	packetLen := fs.Int("packet", 5, "packet length in flits")
	bufDepth := fs.Int("buffers", 4, "per-VC buffer depth in flits")
	seed := fs.Int64("seed", 1, "random seed")
	seeds := fs.Int("seeds", 1, "number of independent seeds to average over")
	traceFile := fs.String("trace", "", "CSV trace file (cycle,srcX,srcY,dstX,dstY[,len]); replaces -pattern/-rates")
	heatmap := fs.Bool("heatmap", false, "print a per-node traffic heatmap after each run (2D meshes)")
	warm := fs.Int("warmup", 1000, "warmup cycles")
	meas := fs.Int("measure", 4000, "measurement cycles")
	drain := fs.Int("drain", 2000, "drain cycles")
	obsAddr := fs.String("obs", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	obsJSON := fs.String("obs-json", "", "write the end-of-run metrics snapshot (JSON) to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ebda-sim:", err)
		return 2
	}

	finishObs, err := obshttp.Setup(*obsAddr, *obsJSON)
	if err != nil {
		return fail(err)
	}

	sizes, err := topology.ParseSizes(*meshSpec)
	if err != nil {
		return fail(err)
	}
	net := topology.NewMesh(sizes...)
	// Resolve every algorithm before anything prints, so an unknown name
	// or one the network cannot carry is a usage error with no output.
	type named struct {
		alg routing.Algorithm
		vcs []int
	}
	var runs []named
	for _, name := range strings.Split(*algNames, ",") {
		alg, vcs, err := algs.ByName(strings.TrimSpace(name), net)
		if err != nil {
			return fail(err)
		}
		runs = append(runs, named{alg, vcs})
	}
	pattern, err := traffic.ByName(*patternName)
	if err != nil {
		return fail(err)
	}
	rates, err := parseRates(*rateSpec)
	if err != nil {
		return fail(err)
	}
	var trace []traffic.TraceEntry
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return fail(err)
		}
		trace, err = traffic.ParseTrace(f, net)
		f.Close()
		if err != nil {
			return fail(err)
		}
		rates = []float64{0} // one run, rate ignored
		fmt.Fprintf(stdout, "# trace %s: %d packets\n", *traceFile, len(trace))
	}

	fmt.Fprintf(stdout, "# %s, pattern %s, packet %d flits, buffers %d\n",
		net, pattern.Name(), *packetLen, *bufDepth)
	fmt.Fprintf(stdout, "%-16s %-6s %10s %10s %12s %s\n",
		"algorithm", "rate", "latency", "p99", "throughput", "status")
	for _, r := range runs {
		alg, vcs := r.alg, r.vcs
		for _, rate := range rates {
			cfg := sim.Config{
				Net: net, Alg: alg, VCs: vcs,
				InjectionRate: rate, Pattern: pattern,
				PacketLen: *packetLen, BufferDepth: *bufDepth,
				Seed:   *seed,
				Warmup: *warm, Measure: *meas, Drain: *drain,
				Trace: trace,
			}
			if *heatmap {
				s := sim.New(cfg)
				res := s.Run()
				fmt.Fprintf(stdout, "%-16s %-6.3f %10.1f %10d %12.4f\n",
					alg.Name(), rate, res.AvgLatency, res.P99Latency, res.Throughput)
				printHeatmap(stdout, net, s.NodeLoad())
				continue
			}
			if *seeds > 1 {
				rep := sim.RunSeeds(cfg, *seeds)
				status := "ok"
				if rep.Deadlocks > 0 {
					status = fmt.Sprintf("DEADLOCK in %d/%d runs", rep.Deadlocks, rep.Runs)
				}
				fmt.Fprintf(stdout, "%-16s %-6.3f %7.1f±%-5.1f %10s %7.4f±%-6.4f %s\n",
					alg.Name(), rate, rep.Latency.Mean(), rep.Latency.Std(),
					"-", rep.Throughput.Mean(), rep.Throughput.Std(), status)
				continue
			}
			res := sim.New(cfg).Run()
			status := "ok"
			if res.Deadlocked {
				status = fmt.Sprintf("DEADLOCK (%d flits stuck)", res.StuckFlits)
			}
			fmt.Fprintf(stdout, "%-16s %-6.3f %10.1f %10d %12.4f %s\n",
				alg.Name(), rate, res.AvgLatency, res.P99Latency, res.Throughput, status)
		}
	}
	if err := finishObs(); err != nil {
		return fail(err)
	}
	return 0
}

// printHeatmap renders per-node outbound traffic as a shaded 2D grid
// (rows printed north to south).
func printHeatmap(w io.Writer, net *topology.Network, loads []int) {
	if net.Dims() != 2 {
		fmt.Fprintln(w, "  (heatmap requires a 2D mesh)")
		return
	}
	max := 1
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	shades := []rune(" .:-=+*#%@")
	width, h := net.Sizes()[0], net.Sizes()[1]
	for y := h - 1; y >= 0; y-- {
		fmt.Fprint(w, "  ")
		for x := 0; x < width; x++ {
			l := loads[net.ID(topology.Coord{x, y})]
			idx := l * (len(shades) - 1) / max
			fmt.Fprintf(w, "%c%c", shades[idx], shades[idx])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  (darkest = %d flits/node during measurement)\n", max)
}

func parseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("rates must be lo:hi:step, got %q", s)
	}
	var v [3]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad rate %q", p)
		}
		v[i] = f
	}
	var out []float64
	for r := v[0]; r <= v[1]+1e-9; r += v[2] {
		out = append(out, r)
	}
	return out, nil
}
