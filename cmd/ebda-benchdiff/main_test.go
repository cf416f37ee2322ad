package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ebda/internal/serve"
)

// engineSnapshot is shaped like the retired engine snapshot that
// `ebda-repro -quick` used to write: per-experiment wall times and CDG
// rates, and no kind.
const engineSnapshot = `{"generated_at":"2026-08-05T00:00:00Z","go_version":"go1.24.0",` +
	`"num_cpu":1,"gomaxprocs":1,"quick":true,` +
	`"experiments":[{"id":"E01","name":"Table 1","wall_seconds":0.0002,"match":true}],` +
	`"cdg":[{"network":"16x16 mesh","channels":960,"edges":1828,"acyclic":true,"wall_seconds":0.0006}],` +
	`"verify_cache":{"hits":0,"misses":1}}`

// writeFile writes body into dir and returns the file path.
func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMalformedJSON checks load failures exit 2.
func TestMalformedJSON(t *testing.T) {
	dir := t.TempDir()
	bad := writeFile(t, dir, "bad.json", "{not json")
	good := writeClusterSnapshot(t, dir, "good.json", clusterSnapshot(3.5, 60, 30, 0))
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

// TestMixedKindsRejected refuses to diff a kind-less engine snapshot
// against a cluster snapshot.
func TestMixedKindsRejected(t *testing.T) {
	dir := t.TempDir()
	eng := writeFile(t, dir, "engine.json", engineSnapshot)
	clu := writeClusterSnapshot(t, dir, "cluster.json", clusterSnapshot(3.5, 60, 30, 0))
	var out, errw bytes.Buffer
	if code := run([]string{eng, clu}, &out, &errw); code != 2 {
		t.Fatalf("mixed kinds: run = %d, want 2; stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "kinds differ") {
		t.Errorf("missing kind mismatch message: %s", errw.String())
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
	// One process drives every replica, so the scaling row must say
	// it is modeled rather than measured.
	if !strings.Contains(out.String(), "scaling_x (modeled)") {
		t.Errorf("scaling row not labelled modeled:\n%s", out.String())
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

// TestClusterMixedKindsRejected refuses to diff a cluster snapshot
// against a kind-less engine snapshot.
func TestClusterMixedKindsRejected(t *testing.T) {
	dir := t.TempDir()
	clu := writeClusterSnapshot(t, dir, "cluster.json", clusterSnapshot(3.5, 60, 30, 0))
	eng := writeFile(t, dir, "engine.json", engineSnapshot)
	var out, errw bytes.Buffer
	if code := run([]string{clu, eng}, &out, &errw); code != 2 {
		t.Fatalf("mixed kinds: run = %d, want 2; stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "kinds differ") {
		t.Errorf("missing kind mismatch message: %s", errw.String())
	}
}

// TestRetiredKindsRejected: the retired serve and delta snapshot kinds
// are unknown, and so is a kind-less engine snapshot, so a pair of any of
// them is a usage error rather than being diffed.
func TestRetiredKindsRejected(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ name, body string }{
		{"serve", `{"kind":"serve"}`},
		{"delta", `{"kind":"delta"}`},
		{"engine", engineSnapshot},
	} {
		path := writeFile(t, dir, c.name+".json", c.body)
		var out, errw bytes.Buffer
		if code := run([]string{path, path}, &out, &errw); code != 2 {
			t.Fatalf("%s snapshots: run = %d, want 2; stderr: %s", c.name, code, errw.String())
		}
		if !strings.Contains(errw.String(), "unknown snapshot kind") {
			t.Errorf("%s snapshots: missing unknown-kind message: %s", c.name, errw.String())
		}
	}
}

// TestDeltaMixedKindsRejected refuses to diff a retired delta snapshot
// against a retired serve snapshot: the kinds differ.
func TestDeltaMixedKindsRejected(t *testing.T) {
	dir := t.TempDir()
	del := writeFile(t, dir, "delta.json", `{"kind":"delta","rounds":256}`)
	srv := writeFile(t, dir, "serve.json", `{"kind":"serve","requests":200}`)
	var out, errw bytes.Buffer
	if code := run([]string{del, srv}, &out, &errw); code != 2 {
		t.Fatalf("mixed kinds: run = %d, want 2; stderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "kinds differ") {
		t.Errorf("missing kind mismatch message: %s", errw.String())
	}
}
