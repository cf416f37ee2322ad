// Command ebda-benchdiff compares two perf snapshots and fails when they
// regress. It understands the repo's two snapshot families and
// dispatches on the "kind" field: engine snapshots (BENCH_verify.json,
// written by `make bench-json`, no kind) and cluster snapshots
// (BENCH_cluster.json, written by ebda-loadgen, kind "cluster"). Mixing
// kinds, or any other kind, is a usage error.
//
// Engine diff: experiments are matched by ID and CDG cases by network
// name; entries present in only one snapshot are reported but never fail
// the diff. A wall-time regression is a ratio above -threshold (default
// 1.20, i.e. >20% slower) on an entry whose baseline wall time is at
// least -minwall seconds — sub-millisecond entries are timer noise, not
// signal. A hit-rate regression is a per-experiment verify-cache hit
// rate that dropped by more than -hitrate-drop (default 0.10, i.e. 10
// percentage points) between snapshots, on experiments with cache
// traffic in both.
//
// Cluster diff: the modeled scaling factor is gated absolutely — the new
// snapshot's scaling_x must reach -cluster-scaling (default 3.0, the
// 4-replica acceptance floor; scaled by replicas/4 for other sizes) —
// because scaling is already a self-normalized ratio of walls from one
// run. It is modeled, not measured: ebda-loadgen drives one phase per
// replica in one process and takes the slowest phase as the cluster
// wall. The routing paths must have been exercised (peer_hits and
// forwards both non-zero), the 5xx count may not increase, aggregate
// p99 latency may grow by at most -p99-grow (default 1.25, skipped when
// the baseline p99 is below -minp99 milliseconds) and aggregate
// throughput may drop by at most -tput-drop (default 0.25).
//
// Every ratio-style check is guarded against zero-valued baselines: a
// baseline entry whose wall time, hit rate or throughput is zero
// carries no signal (quick-mode BENCH_verify.json rows have
// cache_hit_rate 0), so the comparison reports "skip (zero baseline)"
// instead of dividing by zero or minting a spurious ok/regression.
//
// Usage:
//
//	ebda-benchdiff old.json new.json
//	ebda-benchdiff -threshold 1.10 -minwall 0.01 -hitrate-drop 0.05 old.json new.json
//	ebda-benchdiff -cluster-scaling 3.0 BENCH_cluster.json BENCH_cluster_new.json
//
// Exit status: 0 when no regression, 1 on regression, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ebda/internal/experiments"
	"ebda/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses argv, performs the diff and
// returns the process exit status (0 clean, 1 regression, 2 usage/load
// error).
func run(argv []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("ebda-benchdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	threshold := fs.Float64("threshold", 1.20, "fail when new/old wall-time ratio exceeds this")
	minWall := fs.Float64("minwall", 0.005, "ignore entries whose baseline wall time is below this many seconds")
	hitRateDrop := fs.Float64("hitrate-drop", 0.10, "fail when a per-experiment cache hit rate drops by more than this fraction")
	p99Grow := fs.Float64("p99-grow", 1.25, "cluster snapshots: fail when new/old aggregate p99 latency ratio exceeds this")
	tputDrop := fs.Float64("tput-drop", 0.25, "cluster snapshots: fail when aggregate throughput drops by more than this fraction")
	minP99 := fs.Float64("minp99", 1.0, "cluster snapshots: ignore the latency check when the baseline p99 is below this many ms")
	clusterScaling := fs.Float64("cluster-scaling", 3.0, "cluster snapshots: fail when a 4-replica run's scaling_x is below this (scaled by replicas/4)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(errw, "usage: ebda-benchdiff [-threshold 1.2] [-minwall 0.005] [-cluster-scaling 3.0] OLD.json NEW.json")
		return 2
	}
	oldRaw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(errw, "ebda-benchdiff:", err)
		return 2
	}
	newRaw, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(errw, "ebda-benchdiff:", err)
		return 2
	}
	oldKind, err := kindOf(fs.Arg(0), oldRaw)
	if err != nil {
		fmt.Fprintln(errw, "ebda-benchdiff:", err)
		return 2
	}
	newKind, err := kindOf(fs.Arg(1), newRaw)
	if err != nil {
		fmt.Fprintln(errw, "ebda-benchdiff:", err)
		return 2
	}
	if oldKind != newKind {
		fmt.Fprintf(errw, "ebda-benchdiff: snapshot kinds differ (%s is %s, %s is %s)\n",
			fs.Arg(0), orEngine(oldKind), fs.Arg(1), orEngine(newKind))
		return 2
	}
	if oldKind == serve.ClusterBenchKind {
		return diffCluster(out, errw, fs.Arg(0), fs.Arg(1), oldRaw, newRaw, *clusterScaling, *p99Grow, *tputDrop, *minP99)
	}
	if oldKind != "" {
		fmt.Fprintf(errw, "ebda-benchdiff: unknown snapshot kind %q\n", oldKind)
		return 2
	}

	oldB, err := load(fs.Arg(0), oldRaw)
	if err != nil {
		fmt.Fprintln(errw, "ebda-benchdiff:", err)
		return 2
	}
	newB, err := load(fs.Arg(1), newRaw)
	if err != nil {
		fmt.Fprintln(errw, "ebda-benchdiff:", err)
		return 2
	}

	fmt.Fprintf(out, "old: %s (%s, gomaxprocs=%d)\n", fs.Arg(0), oldB.GoVersion, oldB.GoMaxProcs)
	fmt.Fprintf(out, "new: %s (%s, gomaxprocs=%d)\n", fs.Arg(1), newB.GoVersion, newB.GoMaxProcs)
	if oldB.Quick != newB.Quick {
		fmt.Fprintln(out, "warning: snapshots differ in -quick; wall times are not comparable")
	}

	regressions := 0
	regressions += diffRows(out, expRows(oldB), expRows(newB), *threshold, *minWall)
	regressions += diffRows(out, cdgRows(oldB), cdgRows(newB), *threshold, *minWall)
	regressions += diffHitRates(out, oldB, newB, *hitRateDrop)
	if regressions > 0 {
		fmt.Fprintf(out, "\n%d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(out, "\nno wall-time or cache hit-rate regressions")
	return 0
}

// row is one comparable measurement.
type row struct {
	name string
	wall float64
}

func expRows(b experiments.Bench) []row {
	out := make([]row, 0, len(b.Experiments))
	for _, e := range b.Experiments {
		out = append(out, row{name: e.ID, wall: e.WallSeconds})
	}
	return out
}

func cdgRows(b experiments.Bench) []row {
	out := make([]row, 0, len(b.CDG))
	for _, c := range b.CDG {
		out = append(out, row{name: "cdg " + c.Network, wall: c.WallSeconds})
	}
	return out
}

// diffRows prints the comparison of matching rows (by name) and returns
// the number of regressions.
func diffRows(w io.Writer, oldRows, newRows []row, threshold, minWall float64) int {
	byName := make(map[string]row, len(oldRows))
	for _, r := range oldRows {
		byName[r.name] = r
	}
	regressions := 0
	for _, n := range newRows {
		o, ok := byName[n.name]
		if !ok {
			fmt.Fprintf(w, "  %-28s only in new snapshot\n", n.name)
			continue
		}
		delete(byName, n.name)
		ratio := 0.0
		if o.wall > 0 {
			ratio = n.wall / o.wall
		}
		status := "ok"
		switch {
		case o.wall == 0:
			status = "skip (zero baseline)"
		case o.wall < minWall:
			status = "skip (below minwall)"
		case ratio > threshold:
			status = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "  %-28s %10.4fs -> %10.4fs  (%5.2fx)  %s\n",
			n.name, o.wall, n.wall, ratio, status)
	}
	for _, o := range oldRows {
		if _, ok := byName[o.name]; ok {
			fmt.Fprintf(w, "  %-28s only in old snapshot\n", o.name)
		}
	}
	return regressions
}

// cacheRow is one experiment's verify-cache traffic.
type cacheRow struct {
	name         string
	hits, misses uint64
}

func (r cacheRow) rate() float64 {
	if r.hits+r.misses == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.hits+r.misses)
}

func cacheRows(b experiments.Bench) []cacheRow {
	out := make([]cacheRow, 0, len(b.Experiments))
	for _, e := range b.Experiments {
		out = append(out, cacheRow{name: e.ID, hits: e.CacheHits, misses: e.CacheMisses})
	}
	return out
}

// diffHitRates compares per-experiment verify-cache hit rates and returns
// the number of regressions (rate dropped by more than maxDrop). Only
// experiments with cache traffic in both snapshots are compared — an
// experiment that stopped issuing cached verifications entirely shows up
// in the wall-time table, not here.
func diffHitRates(w io.Writer, oldB, newB experiments.Bench, maxDrop float64) int {
	byName := make(map[string]cacheRow)
	for _, r := range cacheRows(oldB) {
		byName[r.name] = r
	}
	regressions := 0
	printedHeader := false
	for _, n := range cacheRows(newB) {
		o, ok := byName[n.name]
		if !ok || o.hits+o.misses == 0 || n.hits+n.misses == 0 {
			continue
		}
		drop := o.rate() - n.rate()
		status := "ok"
		switch {
		case o.rate() == 0:
			// A baseline that never hit (quick-mode rows have
			// cache_hit_rate 0) has no rate to regress from.
			status = "skip (zero baseline)"
		case drop > maxDrop:
			status = "REGRESSION"
			regressions++
		}
		if !printedHeader {
			fmt.Fprintln(w, "verify-cache hit rates:")
			printedHeader = true
		}
		fmt.Fprintf(w, "  %-28s %5.1f%% (%d/%d) -> %5.1f%% (%d/%d)  %s\n",
			n.name, o.rate()*100, o.hits, o.hits+o.misses,
			n.rate()*100, n.hits, n.hits+n.misses, status)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "  %d hit-rate drop(s) beyond %.0f points\n", regressions, maxDrop*100)
	}
	return regressions
}

func load(path string, data []byte) (experiments.Bench, error) {
	var b experiments.Bench
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// kindOf probes a snapshot's "kind" field: empty for engine snapshots,
// "cluster" for cluster snapshots.
func kindOf(path string, data []byte) (string, error) {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return probe.Kind, nil
}

// orEngine names a kind for the mixed-kinds error message.
func orEngine(kind string) string {
	if kind == "" {
		return "an engine snapshot"
	}
	return "a " + kind + " snapshot"
}

// diffCluster compares two cluster snapshots. The scaling gate is
// absolute and judged on the new snapshot alone: scaling_x is already a
// within-run ratio of walls, so it needs no baseline to be meaningful.
// The relative latency/throughput comparisons carry zero-baseline and
// minp99 skip guards.
func diffCluster(out, errw io.Writer, oldPath, newPath string, oldRaw, newRaw []byte, scalingGate, p99Grow, tputDrop, minP99 float64) int {
	oldB, err := serve.ReadClusterBench(oldRaw)
	if err != nil {
		fmt.Fprintf(errw, "ebda-benchdiff: %s: %v\n", oldPath, err)
		return 2
	}
	newB, err := serve.ReadClusterBench(newRaw)
	if err != nil {
		fmt.Fprintf(errw, "ebda-benchdiff: %s: %v\n", newPath, err)
		return 2
	}
	fmt.Fprintf(out, "old: %s (%s, %d replicas, %d requests, seed %d)\n",
		oldPath, oldB.GoVersion, oldB.Replicas, oldB.Requests, oldB.Seed)
	fmt.Fprintf(out, "new: %s (%s, %d replicas, %d requests, seed %d)\n",
		newPath, newB.GoVersion, newB.Replicas, newB.Requests, newB.Seed)
	if oldB.Seed != newB.Seed || oldB.Requests != newB.Requests || oldB.Replicas != newB.Replicas {
		fmt.Fprintln(out, "warning: snapshots ran different workloads; numbers are weak evidence")
	}

	regressions := 0
	// The acceptance floor is stated for 4 replicas; other sizes are
	// held to the same per-replica efficiency.
	floor := scalingGate
	if newB.Replicas != 4 && newB.Replicas > 0 {
		floor = scalingGate * float64(newB.Replicas) / 4
	}
	status := "ok"
	switch {
	case newB.Replicas == 0:
		status = "skip (zero baseline)"
	case newB.ScalingX < floor:
		status = fmt.Sprintf("REGRESSION (below %.2fx floor)", floor)
		regressions++
	}
	fmt.Fprintf(out, "  %-19s %9.2fx  -> %9.2fx   %s\n", "scaling_x (modeled)", oldB.ScalingX, newB.ScalingX, status)

	status = "ok"
	if newB.PeerHits == 0 || newB.Forwards == 0 {
		status = "REGRESSION (routing path not exercised)"
		regressions++
	}
	fmt.Fprintf(out, "  %-19s %6d/%4d -> %6d/%4d  %s\n",
		"peer/forward", oldB.PeerHits, oldB.Forwards, newB.PeerHits, newB.Forwards, status)

	p99Ratio := 0.0
	if oldB.AggP99Millis > 0 {
		p99Ratio = newB.AggP99Millis / oldB.AggP99Millis
	}
	status = "ok"
	switch {
	case oldB.AggP99Millis == 0:
		status = "skip (zero baseline)"
	case oldB.AggP99Millis < minP99:
		status = "skip (below minp99)"
	case p99Ratio > p99Grow:
		status = "REGRESSION"
		regressions++
	}
	fmt.Fprintf(out, "  %-19s %10.2fms -> %10.2fms  (%5.2fx)  %s\n",
		"agg p99", oldB.AggP99Millis, newB.AggP99Millis, p99Ratio, status)

	drop := 0.0
	if oldB.AggregateRPS > 0 {
		drop = (oldB.AggregateRPS - newB.AggregateRPS) / oldB.AggregateRPS
	}
	status = "ok"
	switch {
	case oldB.AggregateRPS == 0:
		status = "skip (zero baseline)"
	case drop > tputDrop:
		status = "REGRESSION"
		regressions++
	}
	fmt.Fprintf(out, "  %-19s %8.1f/s -> %8.1f/s  (%+5.1f%%)  %s\n",
		"agg tput", oldB.AggregateRPS, newB.AggregateRPS, -drop*100, status)

	status = "ok"
	if newB.Status5xx > oldB.Status5xx {
		status = "REGRESSION"
		regressions++
	}
	fmt.Fprintf(out, "  %-19s %10d   -> %10d    %s\n", "5xx responses", oldB.Status5xx, newB.Status5xx, status)

	if regressions > 0 {
		fmt.Fprintf(out, "\n%d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(out, "\nno cluster regressions")
	return 0
}
