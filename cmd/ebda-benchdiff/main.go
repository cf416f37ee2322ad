// Command ebda-benchdiff compares two cluster snapshots
// (BENCH_cluster.json, written by ebda-loadgen, kind "cluster") and fails
// when the newer one regresses. A snapshot of any other kind, or with no
// kind at all, is a usage error, and so is a pair whose kinds differ. The
// verification engine is measured elsewhere: end to end by bench/ (bash
// bench/run.sh, BENCHMARK.json) and in process by the Go benchmarks
// (make bench, make bench-cold).
//
// The modeled scaling factor is gated absolutely — the new snapshot's
// scaling_x must reach -cluster-scaling (default 3.0, the 4-replica
// acceptance floor; scaled by replicas/4 for other sizes) — because
// scaling is already a self-normalized ratio of walls from one run. It is
// modeled, not measured: ebda-loadgen drives one phase per replica in one
// process and takes the slowest phase as the cluster wall. The routing
// paths must have been exercised (peer_hits and forwards both non-zero),
// the 5xx count may not increase, aggregate p99 latency may grow by at
// most -p99-grow (default 1.25, skipped when the baseline p99 is below
// -minp99 milliseconds) and aggregate throughput may drop by at most
// -tput-drop (default 0.25).
//
// The relative checks are guarded against zero-valued baselines: a
// baseline whose p99 or throughput is zero carries no signal, so the
// comparison reports "skip (zero baseline)" instead of dividing by zero
// or minting a spurious ok/regression.
//
// Usage:
//
//	ebda-benchdiff BENCH_cluster.json BENCH_cluster_new.json
//	ebda-benchdiff -cluster-scaling 3.0 -p99-grow 1.25 BENCH_cluster.json BENCH_cluster_new.json
//
// Exit status: 0 when no regression, 1 on regression, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

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
	p99Grow := fs.Float64("p99-grow", 1.25, "fail when new/old aggregate p99 latency ratio exceeds this")
	tputDrop := fs.Float64("tput-drop", 0.25, "fail when aggregate throughput drops by more than this fraction")
	minP99 := fs.Float64("minp99", 1.0, "ignore the latency check when the baseline p99 is below this many ms")
	clusterScaling := fs.Float64("cluster-scaling", 3.0, "fail when a 4-replica run's scaling_x is below this (scaled by replicas/4)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(errw, "usage: ebda-benchdiff [-cluster-scaling 3.0] [-p99-grow 1.25] [-tput-drop 0.25] [-minp99 1.0] OLD.json NEW.json")
		return 2
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	oldRaw, oldKind, err := readSnapshot(oldPath)
	if err != nil {
		fmt.Fprintln(errw, "ebda-benchdiff:", err)
		return 2
	}
	newRaw, newKind, err := readSnapshot(newPath)
	if err != nil {
		fmt.Fprintln(errw, "ebda-benchdiff:", err)
		return 2
	}
	if oldKind != newKind {
		fmt.Fprintf(errw, "ebda-benchdiff: snapshot kinds differ (%s has kind %q, %s has kind %q)\n",
			oldPath, oldKind, newPath, newKind)
		return 2
	}
	if oldKind != serve.ClusterBenchKind {
		fmt.Fprintf(errw, "ebda-benchdiff: unknown snapshot kind %q (only %q snapshots are compared)\n",
			oldKind, serve.ClusterBenchKind)
		return 2
	}
	return diffCluster(out, errw, oldPath, newPath, oldRaw, newRaw, *clusterScaling, *p99Grow, *tputDrop, *minP99)
}

// readSnapshot reads a snapshot file and probes its "kind" field.
func readSnapshot(path string) ([]byte, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return data, probe.Kind, nil
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
