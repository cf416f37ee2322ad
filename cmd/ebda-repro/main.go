// Command ebda-repro runs the full reproduction harness: every table,
// figure and section-level claim of the EbDa paper (experiments E01..E16)
// plus the extension experiments (X01..X07), printing paper-vs-measured
// for each. With -table or -fig it prints the paper's tables or figures
// themselves instead, each verified as it prints.
//
// Usage:
//
//	ebda-repro [-quick] [-details] [-markdown|-json] [-only E06] [-jobs N]
//	ebda-repro -quick -obs :8080 -obs-json run.json -cachestats
//	ebda-repro -table N|all    (N in 1..5)
//	ebda-repro -fig N|all      (N in {0, 3..10, 14, 15})
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"ebda/internal/experiments"
	"ebda/internal/obs"
	"ebda/internal/obs/obshttp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams injected. It
// returns the exit status: 0 when every experiment matches the paper, 1
// on mismatches, 2 on usage or setup errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebda-repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "shrink simulation-based experiments")
	details := fs.Bool("details", false, "print per-experiment detail lines")
	only := fs.String("only", "", "run a single experiment by ID (e.g. E06)")
	markdown := fs.Bool("markdown", false, "emit a Markdown summary table (EXPERIMENTS.md style)")
	jsonOut := fs.Bool("json", false, "emit results as a JSON array")
	jobs := fs.Int("jobs", 0, "worker pool size for running experiments (0 = all cores)")
	cacheStats := fs.Bool("cachestats", false, "print this run's verification-cache counter deltas after the run")
	obsAddr := fs.String("obs", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	obsJSON := fs.String("obs-json", "", "write the end-of-run metrics snapshot (JSON) to this file")
	tables := &pick{valid: allTables}
	figs := &pick{valid: allFigs}
	fs.Var(tables, "table", "print paper table `N` (1-5), or all of them, instead of running the experiments")
	fs.Var(figs, "fig", "print figure `N` (0 = Section 2, 3-10, 14 = Section 5, 15 = Section 6.2), or all of them, instead of running the experiments")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ebda-repro:", err)
		return 2
	}

	if tables.sel != nil || figs.sel != nil {
		if err := renderTables(stdout, tables.sel); err != nil {
			return fail(err)
		}
		if err := renderFigures(stdout, figs.sel); err != nil {
			return fail(err)
		}
		return 0
	}

	finishObs, err := obshttp.Setup(*obsAddr, *obsJSON)
	if err != nil {
		return fail(err)
	}
	// Snapshot before the run so -cachestats reports this invocation's
	// traffic alone, not process-lifetime totals.
	obsBefore := obs.Default.Snapshot()

	var selected []experiments.Runner
	for _, r := range experiments.All() {
		if *only != "" && !strings.EqualFold(r.ID, *only) {
			continue
		}
		selected = append(selected, r)
	}
	if len(selected) == 0 {
		return fail(fmt.Errorf("no experiment matches %q", *only))
	}

	// Experiments fan out over the pool; results come back in canonical
	// All() order, so every output mode prints deterministically.
	results := experiments.RunRunnersJobs(selected, experiments.Options{Quick: *quick}, *jobs)

	failures := 0
	// The Markdown header is emitted lazily, once the first matching
	// result is about to print — never above an error exit.
	headerDone := false
	for _, res := range results {
		if !res.Match {
			failures++
		}
		switch {
		case *jsonOut:
			// Collected below; nothing to print per row.
		case *markdown:
			if !headerDone {
				fmt.Fprintln(stdout, "| ID | Artifact | Paper claim | Measured | Match |")
				fmt.Fprintln(stdout, "|---|---|---|---|---|")
				headerDone = true
			}
			mark := "✔"
			if !res.Match {
				mark = "✘"
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %s | %s |\n",
				res.ID, res.Name, escapeMD(res.Paper), escapeMD(res.Measured), mark)
		default:
			fmt.Fprintln(stdout, res)
			if *details {
				for _, d := range res.Details {
					fmt.Fprintln(stdout, "      "+d)
				}
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return fail(err)
		}
	} else {
		fmt.Fprintf(stdout, "\n%d experiments, %d mismatches\n", len(results), failures)
		if *cacheStats {
			if err := obshttp.WriteCacheDelta(stdout, obs.Default.Snapshot().Sub(obsBefore)); err != nil {
				return fail(err)
			}
		}
	}
	if err := finishObs(); err != nil {
		return fail(err)
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// pick is the value of -table and -fig: "all", or one number from valid.
// sel stays nil until the flag is given.
type pick struct {
	valid, sel []int
}

func (p *pick) String() string {
	if p == nil || len(p.sel) != 1 {
		return ""
	}
	return strconv.Itoa(p.sel[0])
}

func (p *pick) Set(s string) error {
	if s == "all" {
		p.sel = p.valid
		return nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || !slices.Contains(p.valid, n) {
		return fmt.Errorf("want all or one of %v", p.valid)
	}
	p.sel = []int{n}
	return nil
}

// escapeMD keeps table cells on one line and pipe-free.
func escapeMD(s string) string {
	s = strings.ReplaceAll(s, "|", "\\|")
	return strings.ReplaceAll(s, "\n", " ")
}
