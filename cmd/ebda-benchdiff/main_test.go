package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ebda/internal/cdg"
	"ebda/internal/experiments"
	"ebda/internal/serve"
)

// snapshot builds a Bench fixture with one experiment and one CDG case at
// the given wall times (seconds).
func snapshot(expWall, cdgWall float64) experiments.Bench {
	return experiments.Bench{
		GoVersion:  "go1.22",
		NumCPU:     8,
		GoMaxProcs: 8,
		Experiments: []experiments.BenchExperiment{
			{ID: "fig7", Name: "Figure 7", WallSeconds: expWall, Match: true},
		},
		CDG: []experiments.BenchCDG{
			{Network: "16x16 mesh", Channels: 480, Edges: 1000, Acyclic: true,
				WallSeconds: cdgWall, ChannelsPerSec: float64(480) / cdgWall},
		},
	}
}

// writeSnapshot marshals b into dir and returns the file path.
func writeSnapshot(t *testing.T, dir, name string, b experiments.Bench) string {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEqualSnapshots diffs a snapshot against itself: exit 0, no
// regressions.
func TestEqualSnapshots(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", snapshot(1.0, 0.5))
	cur := writeSnapshot(t, dir, "new.json", snapshot(1.0, 0.5))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "no wall-time or cache hit-rate regressions") {
		t.Errorf("missing clean verdict in output:\n%s", out.String())
	}
}

// TestRegression diffs against a snapshot >20% slower: exit 1 and a
// REGRESSION row.
func TestRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", snapshot(1.0, 0.5))
	cur := writeSnapshot(t, dir, "new.json", snapshot(1.5, 0.5))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing REGRESSION row in output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1 regression(s)") {
		t.Errorf("missing regression summary in output:\n%s", out.String())
	}
}

// TestBelowMinwallSkipped checks that a huge ratio on a sub-minwall
// baseline is noise, not a regression.
func TestBelowMinwallSkipped(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", snapshot(0.001, 0.002))
	cur := writeSnapshot(t, dir, "new.json", snapshot(0.004, 0.004))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "skip (below minwall)") {
		t.Errorf("missing minwall skip in output:\n%s", out.String())
	}
}

// TestThresholdFlag tightens the threshold so a 10% slowdown fails.
func TestThresholdFlag(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", snapshot(1.0, 0.5))
	cur := writeSnapshot(t, dir, "new.json", snapshot(1.1, 0.5))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("default threshold: run = %d, want 0", code)
	}
	out.Reset()
	if code := run([]string{"-threshold", "1.05", old, cur}, &out, &errw); code != 1 {
		t.Fatalf("-threshold 1.05: run = %d, want 1; output:\n%s", code, out.String())
	}
}

// cacheSnapshot builds a Bench fixture whose single experiment carries
// the given verify-cache traffic (equal wall times, so only the hit-rate
// diff can fail).
func cacheSnapshot(hits, misses uint64) experiments.Bench {
	b := snapshot(1.0, 0.5)
	b.Experiments[0].CacheHits = hits
	b.Experiments[0].CacheMisses = misses
	if hits+misses > 0 {
		b.Experiments[0].CacheHitRate = float64(hits) / float64(hits+misses)
	}
	return b
}

// TestHitRateRegression fails the diff when an experiment's cache hit
// rate drops past -hitrate-drop, and passes when the drop is within it.
func TestHitRateRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", cacheSnapshot(90, 10)) // 90%
	cur := writeSnapshot(t, dir, "new.json", cacheSnapshot(50, 50)) // 50%
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "verify-cache hit rates:") ||
		!strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing hit-rate regression row in output:\n%s", out.String())
	}

	// A 5-point drop stays within the default 10-point budget.
	out.Reset()
	cur = writeSnapshot(t, dir, "new2.json", cacheSnapshot(85, 15)) // 85%
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("small drop: run = %d, want 0; output:\n%s", code, out.String())
	}

	// Tightening -hitrate-drop makes the same small drop fail.
	out.Reset()
	if code := run([]string{"-hitrate-drop", "0.02", old, cur}, &out, &errw); code != 1 {
		t.Fatalf("-hitrate-drop 0.02: run = %d, want 1; output:\n%s", code, out.String())
	}
}

// TestHitRateSkipsNoTraffic ignores experiments without cache traffic on
// either side — no traffic means no rate to compare.
func TestHitRateSkipsNoTraffic(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", cacheSnapshot(90, 10))
	cur := writeSnapshot(t, dir, "new.json", cacheSnapshot(0, 0))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "verify-cache hit rates:") {
		t.Errorf("traffic-less experiment compared anyway:\n%s", out.String())
	}
}

// TestMalformedJSON checks load failures exit 2.
func TestMalformedJSON(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := writeSnapshot(t, dir, "good.json", snapshot(1.0, 0.5))
	var out, errw bytes.Buffer
	if code := run([]string{bad, good}, &out, &errw); code != 2 {
		t.Fatalf("malformed old: run = %d, want 2", code)
	}
	errw.Reset()
	if code := run([]string{good, bad}, &out, &errw); code != 2 {
		t.Fatalf("malformed new: run = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "bad.json") {
		t.Errorf("stderr does not name the malformed file: %s", errw.String())
	}
}

// TestUsageErrors checks missing arguments and unknown flags exit 2.
func TestUsageErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 2 {
		t.Fatalf("no args: run = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "usage:") {
		t.Errorf("missing usage line: %s", errw.String())
	}
	if code := run([]string{"-bogus"}, &out, &errw); code != 2 {
		t.Fatalf("unknown flag: run = %d, want 2", code)
	}
	if code := run([]string{"only-one.json"}, &out, &errw); code != 2 {
		t.Fatalf("one arg: run = %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &out, &errw); code != 2 {
		t.Fatalf("missing files: run = %d, want 2", code)
	}
}

// serveSnapshot builds a serving-layer fixture.
func serveSnapshot(p99MS, tput float64, s5xx int) serve.Bench {
	return serve.Bench{
		Kind: serve.BenchKind, GoVersion: "go1.24", NumCPU: 8,
		Seed: 1, Requests: 300,
		Status2xx: 300 - s5xx, Status5xx: s5xx,
		Cache: 200, Computed: 90, Coalesced: 10, CoalesceRate: 10.0 / 300,
		WallSeconds: float64(300) / tput, ThroughputRPS: tput,
		P50Millis: p99MS / 4, P99Millis: p99MS,
	}
}

// writeServeSnapshot marshals b into dir and returns the file path.
func writeServeSnapshot(t *testing.T, dir, name string, b serve.Bench) string {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServeEqualSnapshots diffs a serve snapshot against itself: clean.
func TestServeEqualSnapshots(t *testing.T) {
	dir := t.TempDir()
	old := writeServeSnapshot(t, dir, "old.json", serveSnapshot(20, 500, 0))
	cur := writeServeSnapshot(t, dir, "new.json", serveSnapshot(20, 500, 0))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "no serving-layer regressions") {
		t.Errorf("missing clean verdict:\n%s", out.String())
	}
}

// TestServeP99Regression fails when p99 grows past -p99-grow.
func TestServeP99Regression(t *testing.T) {
	dir := t.TempDir()
	old := writeServeSnapshot(t, dir, "old.json", serveSnapshot(20, 500, 0))
	cur := writeServeSnapshot(t, dir, "new.json", serveSnapshot(30, 500, 0)) // 1.5x
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "p99 latency") || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing p99 REGRESSION row:\n%s", out.String())
	}
	// A 1.2x growth stays inside the default 1.25 budget...
	out.Reset()
	cur = writeServeSnapshot(t, dir, "new2.json", serveSnapshot(24, 500, 0))
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("1.2x growth: run = %d, want 0; output:\n%s", code, out.String())
	}
	// ...and fails once -p99-grow tightens.
	out.Reset()
	if code := run([]string{"-p99-grow", "1.10", old, cur}, &out, &errw); code != 1 {
		t.Fatalf("-p99-grow 1.10: run = %d, want 1; output:\n%s", code, out.String())
	}
}

// TestServeMinP99SkipsNoise skips the latency check on sub-minp99
// baselines where a large ratio is scheduler noise.
func TestServeMinP99SkipsNoise(t *testing.T) {
	dir := t.TempDir()
	old := writeServeSnapshot(t, dir, "old.json", serveSnapshot(0.5, 500, 0))
	cur := writeServeSnapshot(t, dir, "new.json", serveSnapshot(0.9, 500, 0)) // 1.8x but tiny
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "skip (below minp99)") {
		t.Errorf("missing minp99 skip:\n%s", out.String())
	}
}

// TestServeThroughputRegression fails when throughput drops past
// -tput-drop.
func TestServeThroughputRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeServeSnapshot(t, dir, "old.json", serveSnapshot(20, 500, 0))
	cur := writeServeSnapshot(t, dir, "new.json", serveSnapshot(20, 300, 0)) // -40%
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "throughput") || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing throughput REGRESSION row:\n%s", out.String())
	}
	// A 10% drop is within the default budget; -tput-drop 0.05 fails it.
	out.Reset()
	cur = writeServeSnapshot(t, dir, "new2.json", serveSnapshot(20, 450, 0))
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("10%% drop: run = %d, want 0; output:\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-tput-drop", "0.05", old, cur}, &out, &errw); code != 1 {
		t.Fatalf("-tput-drop 0.05: run = %d, want 1; output:\n%s", code, out.String())
	}
}

// TestServe5xxRegression fails when the 5xx count increases.
func TestServe5xxRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeServeSnapshot(t, dir, "old.json", serveSnapshot(20, 500, 0))
	cur := writeServeSnapshot(t, dir, "new.json", serveSnapshot(20, 500, 3))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "5xx responses") || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing 5xx REGRESSION row:\n%s", out.String())
	}
}

// TestMixedKindsRejected refuses to diff an engine snapshot against a
// serve snapshot.
func TestMixedKindsRejected(t *testing.T) {
	dir := t.TempDir()
	eng := writeSnapshot(t, dir, "engine.json", snapshot(1.0, 0.5))
	srv := writeServeSnapshot(t, dir, "serve.json", serveSnapshot(20, 500, 0))
	var out, errw bytes.Buffer
	if code := run([]string{eng, srv}, &out, &errw); code != 2 {
		t.Fatalf("mixed kinds: run = %d, want 2; stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "kinds differ") {
		t.Errorf("missing kind mismatch message: %s", errw.String())
	}
}

// deltaSnapshot builds a delta fixture with the two standard cases at
// the given ratios (a 100µs full baseline scales the absolute costs).
func deltaSnapshot(linkRatio, toggleRatio float64, incremental uint64) cdg.DeltaBench {
	mk := func(name string, ratio float64) cdg.DeltaBenchCase {
		const fullNS = 100_000.0
		return cdg.DeltaBenchCase{
			Name: name, Network: "8x8 mesh",
			FullNanos: fullNS, DeltaNanos: ratio * fullNS, Ratio: ratio,
			Incremental: incremental,
		}
	}
	return cdg.DeltaBench{
		Kind: cdg.DeltaBenchKind, GoVersion: "go1.24", NumCPU: 8, Rounds: 256,
		Cases: []cdg.DeltaBenchCase{
			mk("mesh8x8/single-link", linkRatio),
			mk("mesh8x8/turn-toggle", toggleRatio),
		},
	}
}

// writeDeltaSnapshot marshals b into dir and returns the file path.
func writeDeltaSnapshot(t *testing.T, dir, name string, b cdg.DeltaBench) string {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDeltaEqualSnapshots diffs a delta snapshot against itself: clean.
func TestDeltaEqualSnapshots(t *testing.T) {
	dir := t.TempDir()
	old := writeDeltaSnapshot(t, dir, "old.json", deltaSnapshot(0.02, 0.5, 256))
	cur := writeDeltaSnapshot(t, dir, "new.json", deltaSnapshot(0.02, 0.5, 256))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "no incremental-verification regressions") {
		t.Errorf("missing clean verdict:\n%s", out.String())
	}
}

// TestDeltaRatioJitterTolerated: relative ratio movement is never gated
// (microsecond-scale delta costs jitter by whole multiples between
// runs), so even a 1.5x grow passes while the absolute gates hold.
func TestDeltaRatioJitterTolerated(t *testing.T) {
	dir := t.TempDir()
	old := writeDeltaSnapshot(t, dir, "old.json", deltaSnapshot(0.02, 0.5, 256))
	cur := writeDeltaSnapshot(t, dir, "new.json", deltaSnapshot(0.03, 0.75, 256)) // 1.5x both
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "1.50x") {
		t.Errorf("grow column should still report the movement:\n%s", out.String())
	}
}

// TestDeltaSlowerThanFullFails: an incremental path that costs more
// than its from-scratch baseline (ratio above 1) is a defect in any
// case, gated or not.
func TestDeltaSlowerThanFullFails(t *testing.T) {
	dir := t.TempDir()
	old := writeDeltaSnapshot(t, dir, "old.json", deltaSnapshot(0.02, 0.5, 256))
	cur := writeDeltaSnapshot(t, dir, "new.json", deltaSnapshot(0.02, 1.3, 256))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "incremental slower than full verify") {
		t.Errorf("missing slower-than-full REGRESSION row:\n%s", out.String())
	}
}

// TestDeltaAbsoluteGate holds single-link cases to the -delta-ratio
// ceiling even when old and new agree.
func TestDeltaAbsoluteGate(t *testing.T) {
	dir := t.TempDir()
	old := writeDeltaSnapshot(t, dir, "old.json", deltaSnapshot(0.08, 0.5, 256))
	cur := writeDeltaSnapshot(t, dir, "new.json", deltaSnapshot(0.08, 0.5, 256))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "gate") {
		t.Errorf("missing gate REGRESSION row:\n%s", out.String())
	}
	// Loosening the gate clears it; the toggle case is never gated.
	out.Reset()
	if code := run([]string{"-delta-ratio", "0.10", old, cur}, &out, &errw); code != 0 {
		t.Fatalf("-delta-ratio 0.10: run = %d, want 0; output:\n%s", code, out.String())
	}
}

// TestDeltaZeroBaselineSkipped: a baseline case with ratio 0 carries no
// signal, so any new ratio is reported as a skip, not a regression.
func TestDeltaZeroBaselineSkipped(t *testing.T) {
	dir := t.TempDir()
	old := writeDeltaSnapshot(t, dir, "old.json", deltaSnapshot(0.0, 0.0, 256))
	cur := writeDeltaSnapshot(t, dir, "new.json", deltaSnapshot(0.02, 0.5, 256))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "skip (zero baseline)") {
		t.Errorf("missing zero-baseline skip:\n%s", out.String())
	}
}

// TestDeltaNoIncrementalFails: a snapshot whose diffs all fell back to
// full peels measured nothing and must fail the diff.
func TestDeltaNoIncrementalFails(t *testing.T) {
	dir := t.TempDir()
	old := writeDeltaSnapshot(t, dir, "old.json", deltaSnapshot(0.02, 0.5, 256))
	cur := writeDeltaSnapshot(t, dir, "new.json", deltaSnapshot(0.02, 0.5, 0))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no incremental verifications") {
		t.Errorf("missing no-incremental REGRESSION row:\n%s", out.String())
	}
}

// TestDeltaMixedKindsRejected refuses delta-vs-serve diffs.
func TestDeltaMixedKindsRejected(t *testing.T) {
	dir := t.TempDir()
	del := writeDeltaSnapshot(t, dir, "delta.json", deltaSnapshot(0.02, 0.5, 256))
	srv := writeServeSnapshot(t, dir, "serve.json", serveSnapshot(20, 500, 0))
	var out, errw bytes.Buffer
	if code := run([]string{del, srv}, &out, &errw); code != 2 {
		t.Fatalf("mixed kinds: run = %d, want 2; stderr: %s", code, errw.String())
	}
}

// clusterSnapshot builds a cluster fixture.
func clusterSnapshot(scaling float64, peerHits, forwards, s5xx int) serve.ClusterBench {
	return serve.ClusterBench{
		Kind: serve.ClusterBenchKind, GoVersion: "go1.24", NumCPU: 1,
		Seed: 1, Replicas: 4, Requests: 800, Designs: 64, MisrouteRate: 0.10,
		BaselineWallSeconds: 0.5, BaselineRPS: 1600,
		// AggregateRPS is fixed rather than derived from scaling so a
		// test can move the scaling gate without also tripping the
		// relative throughput gate.
		ClusterWallSeconds: 0.5 / scaling, AggregateRPS: 5000, ScalingX: scaling,
		PeerHits: peerHits, Forwards: forwards,
		Status2xx: 800 - s5xx, Status5xx: s5xx,
		AggP50Millis: 5, AggP99Millis: 20,
	}
}

// writeClusterSnapshot marshals b into dir and returns the file path.
func writeClusterSnapshot(t *testing.T, dir, name string, b serve.ClusterBench) string {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClusterEqualSnapshots diffs a healthy cluster snapshot against
// itself: clean.
func TestClusterEqualSnapshots(t *testing.T) {
	dir := t.TempDir()
	old := writeClusterSnapshot(t, dir, "old.json", clusterSnapshot(3.5, 60, 30, 0))
	cur := writeClusterSnapshot(t, dir, "new.json", clusterSnapshot(3.5, 60, 30, 0))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "no cluster regressions") {
		t.Errorf("missing clean verdict:\n%s", out.String())
	}
}

// TestClusterScalingGate fails a 4-replica run whose scaling falls
// below the -cluster-scaling floor, judged on the new snapshot alone.
func TestClusterScalingGate(t *testing.T) {
	dir := t.TempDir()
	old := writeClusterSnapshot(t, dir, "old.json", clusterSnapshot(3.5, 60, 30, 0))
	cur := writeClusterSnapshot(t, dir, "new.json", clusterSnapshot(2.4, 60, 30, 0))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "below 3.00x floor") {
		t.Errorf("missing scaling REGRESSION row:\n%s", out.String())
	}
	// Loosening the gate clears the same snapshot.
	out.Reset()
	if code := run([]string{"-cluster-scaling", "2.0", old, cur}, &out, &errw); code != 0 {
		t.Fatalf("-cluster-scaling 2.0: run = %d, want 0; output:\n%s", code, out.String())
	}
}

// TestClusterScalingFloorScalesWithReplicas holds a 2-replica run to
// half the 4-replica floor.
func TestClusterScalingFloorScalesWithReplicas(t *testing.T) {
	dir := t.TempDir()
	two := clusterSnapshot(1.6, 60, 30, 0)
	two.Replicas = 2
	old := writeClusterSnapshot(t, dir, "old.json", two)
	cur := writeClusterSnapshot(t, dir, "new.json", two)
	var out, errw bytes.Buffer
	// 1.6x clears the scaled 1.5x floor.
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s", code, out.String())
	}
	two.ScalingX = 1.4
	cur = writeClusterSnapshot(t, dir, "new2.json", two)
	out.Reset()
	if code := run([]string{old, cur}, &out, &errw); code != 1 {
		t.Fatalf("1.4x at 2 replicas: run = %d, want 1; output:\n%s", code, out.String())
	}
}

// TestClusterRoutingNotExercised fails a snapshot that never answered
// from a peer cache or never forwarded — the run proved nothing about
// the router.
func TestClusterRoutingNotExercised(t *testing.T) {
	dir := t.TempDir()
	old := writeClusterSnapshot(t, dir, "old.json", clusterSnapshot(3.5, 60, 30, 0))
	for _, c := range []struct {
		name           string
		hits, forwards int
	}{
		{"no-peer-hits.json", 0, 30},
		{"no-forwards.json", 60, 0},
	} {
		cur := writeClusterSnapshot(t, dir, c.name, clusterSnapshot(3.5, c.hits, c.forwards, 0))
		var out, errw bytes.Buffer
		if code := run([]string{old, cur}, &out, &errw); code != 1 {
			t.Fatalf("%s: run = %d, want 1; output:\n%s", c.name, code, out.String())
		}
		if !strings.Contains(out.String(), "routing path not exercised") {
			t.Errorf("%s: missing routing REGRESSION row:\n%s", c.name, out.String())
		}
	}
}

// TestCluster5xxRegression fails when the 5xx count increases.
func TestCluster5xxRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeClusterSnapshot(t, dir, "old.json", clusterSnapshot(3.5, 60, 30, 0))
	cur := writeClusterSnapshot(t, dir, "new.json", clusterSnapshot(3.5, 60, 30, 2))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "5xx responses") || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing 5xx REGRESSION row:\n%s", out.String())
	}
}

// TestClusterZeroBaselineSkipped: a degenerate baseline (zero agg p99
// and throughput) anchors no relative comparison but still lets the
// absolute gates run.
func TestClusterZeroBaselineSkipped(t *testing.T) {
	dir := t.TempDir()
	oldB := clusterSnapshot(3.5, 60, 30, 0)
	oldB.AggP99Millis = 0
	oldB.AggregateRPS = 0
	old := writeClusterSnapshot(t, dir, "old.json", oldB)
	cur := writeClusterSnapshot(t, dir, "new.json", clusterSnapshot(3.5, 60, 30, 0))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "skip (zero baseline)") {
		t.Errorf("missing zero-baseline skip:\n%s", out.String())
	}
}

// TestClusterMixedKindsRejected refuses cluster-vs-serve diffs.
func TestClusterMixedKindsRejected(t *testing.T) {
	dir := t.TempDir()
	clu := writeClusterSnapshot(t, dir, "cluster.json", clusterSnapshot(3.5, 60, 30, 0))
	srv := writeServeSnapshot(t, dir, "serve.json", serveSnapshot(20, 500, 0))
	var out, errw bytes.Buffer
	if code := run([]string{clu, srv}, &out, &errw); code != 2 {
		t.Fatalf("mixed kinds: run = %d, want 2; stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "kinds differ") {
		t.Errorf("missing kind mismatch message: %s", errw.String())
	}
}

// TestZeroWallBaselineSkipped: a baseline row with wall time 0 is
// skipped explicitly even when -minwall is disabled.
func TestZeroWallBaselineSkipped(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", snapshot(0.0, 0.5))
	cur := writeSnapshot(t, dir, "new.json", snapshot(3.0, 0.5))
	var out, errw bytes.Buffer
	if code := run([]string{"-minwall", "0", old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "skip (zero baseline)") {
		t.Errorf("missing zero-baseline skip:\n%s", out.String())
	}
}

// TestHitRateZeroBaselineSkipped: quick-mode rows carry hit rate 0 with
// real miss traffic; they have no rate to regress from.
func TestHitRateZeroBaselineSkipped(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", cacheSnapshot(0, 10)) // rate 0, traffic 10
	cur := writeSnapshot(t, dir, "new.json", cacheSnapshot(5, 5))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "skip (zero baseline)") {
		t.Errorf("missing zero-baseline skip:\n%s", out.String())
	}
}

// TestServeZeroThroughputBaselineSkipped: a degenerate baseline with 0
// throughput cannot anchor a drop ratio.
func TestServeZeroThroughputBaselineSkipped(t *testing.T) {
	dir := t.TempDir()
	oldB := serveSnapshot(20, 500, 0)
	oldB.ThroughputRPS = 0
	oldB.WallSeconds = 0
	old := writeServeSnapshot(t, dir, "old.json", oldB)
	cur := writeServeSnapshot(t, dir, "new.json", serveSnapshot(20, 500, 0))
	var out, errw bytes.Buffer
	if code := run([]string{old, cur}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "skip (zero baseline)") {
		t.Errorf("missing zero-baseline skip:\n%s", out.String())
	}
}
