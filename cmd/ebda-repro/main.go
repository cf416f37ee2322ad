// Command ebda-repro runs the full reproduction harness: every table,
// figure and section-level claim of the EbDa paper (experiments E01..E16)
// plus the extension experiments (X01..X07), printing paper-vs-measured
// for each.
//
// Usage:
//
//	ebda-repro [-quick] [-details] [-markdown|-json] [-only E06] [-jobs N] [-benchjson FILE]
//	ebda-repro -quick -obs :8080 -obs-json run.json -cachestats
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ebda/internal/experiments"
	"ebda/internal/obs"
	"ebda/internal/obs/obshttp"
)

func main() {
	quick := flag.Bool("quick", false, "shrink simulation-based experiments")
	details := flag.Bool("details", false, "print per-experiment detail lines")
	only := flag.String("only", "", "run a single experiment by ID (e.g. E06)")
	markdown := flag.Bool("markdown", false, "emit a Markdown summary table (EXPERIMENTS.md style)")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array")
	jobs := flag.Int("jobs", 0, "worker pool size for running experiments (0 = all cores)")
	benchJSON := flag.String("benchjson", "", "write a perf snapshot (wall time per experiment, CDG channels/sec) to this file, e.g. BENCH_verify.json")
	cacheStats := flag.Bool("cachestats", false, "print this run's verification-cache counter deltas after the run")
	obsAddr := flag.String("obs", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
	obsJSON := flag.String("obs-json", "", "write the end-of-run metrics snapshot (JSON) to this file")
	flag.Parse()

	finishObs, err := obshttp.Setup(*obsAddr, *obsJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Snapshot before the run so -cachestats reports this invocation's
	// traffic alone, not process-lifetime totals.
	obsBefore := obs.Default.Snapshot()

	opts := experiments.Options{Quick: *quick}

	if *benchJSON != "" {
		if err := writeBench(*benchJSON, opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s\n", *benchJSON)
		if err := finishObs(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	var selected []experiments.Runner
	for _, r := range experiments.All() {
		if *only != "" && !strings.EqualFold(r.ID, *only) {
			continue
		}
		selected = append(selected, r)
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches %q\n", *only)
		os.Exit(2)
	}

	// Experiments fan out over the pool; results come back in canonical
	// All() order, so every output mode prints deterministically.
	results := experiments.RunRunnersJobs(selected, opts, *jobs)

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
				fmt.Println("| ID | Artifact | Paper claim | Measured | Match |")
				fmt.Println("|---|---|---|---|---|")
				headerDone = true
			}
			mark := "✔"
			if !res.Match {
				mark = "✘"
			}
			fmt.Printf("| %s | %s | %s | %s | %s |\n",
				res.ID, res.Name, escapeMD(res.Paper), escapeMD(res.Measured), mark)
		default:
			fmt.Println(res)
			if *details {
				for _, d := range res.Details {
					fmt.Println("      " + d)
				}
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := finishObs(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if failures > 0 {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("\n%d experiments, %d mismatches\n", len(results), failures)
	if *cacheStats {
		printCacheStats(obsBefore)
	}
	if err := finishObs(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// printCacheStats reports the verification cache's effectiveness over
// this run alone — counter deltas against the pre-run snapshot, rendered
// through the shared snapshot renderer — so repeated or long-lived
// invocations do not accumulate stale process-lifetime totals.
func printCacheStats(before obs.Snapshot) {
	delta := obs.Default.Snapshot().Sub(before).Filter("ebda_verify_cache")
	fmt.Println("verify cache (this run):")
	if err := delta.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	hits := delta.Counter("ebda_verify_cache_hits_total")
	misses := delta.Counter("ebda_verify_cache_misses_total")
	if hits+misses > 0 {
		fmt.Printf("  hit rate: %.1f%% (%d/%d)\n",
			float64(hits)/float64(hits+misses)*100, hits, hits+misses)
	}
}

// writeBench runs the perf harness and writes the JSON snapshot.
func writeBench(path string, opts experiments.Options) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	b := experiments.RunBench(opts)
	if err := b.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// escapeMD keeps table cells on one line and pipe-free.
func escapeMD(s string) string {
	s = strings.ReplaceAll(s, "|", "\\|")
	return strings.ReplaceAll(s, "\n", " ")
}
