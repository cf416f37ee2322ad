// Command ebda-deltabench measures the incremental delta verification
// path against the from-scratch path and writes the delta perf snapshot
// (BENCH_delta.json) that ebda-benchdiff gates across commits.
//
// Each case replays a family of single-element diffs — one removed link
// per verification — against a retained cdg.DeltaWorkspace, and replays
// the same diffs the pre-delta way (derive the perturbed design, verify
// from scratch through the pooled engine). The snapshot records the mean
// per-diff cost of both paths and their ratio, plus the
// incremental/rebuild split so a run that did not take the incremental
// path is visible. Before timing, every distinct diff's delta verdict is
// checked against the from-scratch verdict; a divergence is a correctness
// bug and exits 1. Turn toggles are not timed: they rebuild the toggled
// design, which is a full verification.
//
// Usage:
//
//	ebda-deltabench -out BENCH_delta.json
//	ebda-deltabench -rounds 512 -out ""
//
// Exit status: 0 on success, 1 when a delta verdict diverges from the
// from-scratch verdict, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/obs"
	"ebda/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchCase is one perturbation family: a diff sequence and the
// from-scratch computation of each diff's verdict.
type benchCase struct {
	name  string
	net   *topology.Network
	vcs   cdg.VCConfig
	ts    *core.TurnSet
	diffs []cdg.Diff
	full  func(cdg.Diff) cdg.Report
}

func run(argv []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("ebda-deltabench", flag.ContinueOnError)
	fs.SetOutput(errw)
	outPath := fs.String("out", "BENCH_delta.json", "snapshot path (empty disables)")
	rounds := fs.Int("rounds", 256, "verifications measured per case and path")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(errw, "usage: ebda-deltabench [-rounds 256] [-out BENCH_delta.json]")
		return 2
	}
	if *rounds < 1 {
		fmt.Fprintln(errw, "ebda-deltabench: -rounds must be positive")
		return 2
	}

	b := cdg.DeltaBench{
		Kind:        cdg.DeltaBenchKind,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339), //ebda:allow detlint bench snapshots are stamped with real wall time by design
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Rounds:      *rounds,
	}
	for _, c := range cases() {
		res, err := measure(c, *rounds)
		if err != nil {
			fmt.Fprintln(errw, "ebda-deltabench:", err)
			return 1
		}
		b.Cases = append(b.Cases, res)
		fmt.Fprintf(out, "%-24s full %10.0f ns  delta %8.0f ns  ratio %6.4f  (incremental %d, fallback %d)\n",
			res.Name, res.FullNanos, res.DeltaNanos, res.Ratio, res.Incremental, res.Fallbacks)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(errw, "ebda-deltabench:", err)
			return 2
		}
		if err := b.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(errw, "ebda-deltabench:", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(errw, "ebda-deltabench:", err)
			return 2
		}
		fmt.Fprintf(errw, "ebda-deltabench: snapshot written to %s\n", *outPath)
	}
	return 0
}

// cases builds the measured perturbation families: the 8x8-mesh
// single-link case, which ebda-benchdiff gates.
func cases() []benchCase {
	net := topology.NewMesh(8, 8)
	chain := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]")
	ts := chain.AllTurns()
	vcs := cdg.VCConfigFor(net.Dims(), chain.Channels())

	links := net.Links()
	linkDiffs := make([]cdg.Diff, len(links))
	for i, l := range links {
		linkDiffs[i] = cdg.Diff{RemoveLinks: []topology.Link{l}}
	}
	return []benchCase{
		{
			name: "mesh8x8/single-link", net: net, vcs: vcs, ts: ts, diffs: linkDiffs,
			full: func(d cdg.Diff) cdg.Report {
				return cdg.VerifyTurnSet(net.WithoutLinks(d.RemoveLinks), vcs, ts)
			},
		},
	}
}

// measure checks every distinct diff for delta/full agreement, then times
// both paths over the same rotating diff sequence.
func measure(c benchCase, rounds int) (cdg.DeltaBenchCase, error) {
	dw, err := cdg.NewDeltaWorkspace(c.net, c.vcs, c.ts)
	if err != nil {
		return cdg.DeltaBenchCase{}, fmt.Errorf("%s: %v", c.name, err)
	}
	fulls := make([]cdg.Report, len(c.diffs))
	for i, d := range c.diffs {
		fulls[i] = c.full(d)
		got, err := dw.VerifyDiff(d)
		if err != nil {
			return cdg.DeltaBenchCase{}, fmt.Errorf("%s diff %d: %v", c.name, i, err)
		}
		if !reportsEqual(got, fulls[i]) {
			return cdg.DeltaBenchCase{}, fmt.Errorf(
				"%s diff %d: delta verdict diverges from from-scratch verdict:\n delta %v\n  full %v",
				c.name, i, got, fulls[i])
		}
	}

	before := counterVals()
	t0 := time.Now() //ebda:allow detlint benchmarks measure wall time by design
	for i := 0; i < rounds; i++ {
		if _, err := dw.VerifyDiff(c.diffs[i%len(c.diffs)]); err != nil {
			return cdg.DeltaBenchCase{}, fmt.Errorf("%s: %v", c.name, err)
		}
	}
	deltaNS := float64(time.Since(t0).Nanoseconds()) / float64(rounds) //ebda:allow detlint benchmarks measure wall time by design
	after := counterVals()

	t0 = time.Now() //ebda:allow detlint benchmarks measure wall time by design
	for i := 0; i < rounds; i++ {
		if rep := c.full(c.diffs[i%len(c.diffs)]); rep.Channels == 0 {
			return cdg.DeltaBenchCase{}, fmt.Errorf("%s: empty from-scratch report", c.name)
		}
	}
	fullNS := float64(time.Since(t0).Nanoseconds()) / float64(rounds) //ebda:allow detlint benchmarks measure wall time by design

	res := cdg.DeltaBenchCase{
		Name:        c.name,
		Network:     c.net.String(),
		FullNanos:   fullNS,
		DeltaNanos:  deltaNS,
		Incremental: after["ebda_cdg_delta_incremental_total"] - before["ebda_cdg_delta_incremental_total"],
		Fallbacks:   after["ebda_cdg_delta_fallbacks_total"] - before["ebda_cdg_delta_fallbacks_total"],
	}
	if fullNS > 0 {
		res.Ratio = deltaNS / fullNS
	}
	return res, nil
}

// reportsEqual compares everything a verdict exposes, including the
// rendered cycle witness.
func reportsEqual(a, b cdg.Report) bool {
	return a.Network == b.Network && a.Channels == b.Channels &&
		a.Edges == b.Edges && a.Acyclic == b.Acyclic &&
		cdg.FormatCycle(a.Cycle) == cdg.FormatCycle(b.Cycle)
}

// counterVals snapshots the default registry's counters by name.
func counterVals() map[string]uint64 {
	s := obs.Default.Snapshot()
	out := make(map[string]uint64, len(s.Counters))
	for _, c := range s.Counters {
		out[c.Name] = c.Value
	}
	return out
}
