package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/obs/trace"
	"ebda/internal/serve"
	"ebda/internal/topology"
)

// take returns a workload's priming requests followed by n requests of
// its stream.
func take(t *testing.T, workload string, seed int64, n int) []*request {
	t.Helper()
	prime, gen, err := newWorkload(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]*request(nil), prime...)
	for i := 0; i < n; i++ {
		out = append(out, gen.next())
	}
	return out
}

// streamLen keeps the graph stream, whose bodies are large, short.
func streamLen(workload string) int {
	if workload == wlGraph {
		return 60
	}
	return 300
}

func TestStreamsAreSeedDeterministic(t *testing.T) {
	for _, wl := range workloadNames {
		a, b, c := take(t, wl, 7, streamLen(wl)), take(t, wl, 7, streamLen(wl)), take(t, wl, 8, streamLen(wl))
		same, differs := true, false
		for i := range a {
			same = same && a[i].path == b[i].path && bytes.Equal(a[i].body, b[i].body)
			differs = differs || !bytes.Equal(a[i].body, c[i].body)
		}
		if !same {
			t.Errorf("%s: two streams from seed 7 differ", wl)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 produce the same stream", wl)
		}
	}
}

func TestRequestsPassServerDecoders(t *testing.T) {
	for _, wl := range workloadNames {
		for i, r := range take(t, wl, 3, streamLen(wl)) {
			if len(r.body) > serve.MaxBodyBytes {
				t.Fatalf("%s request %d: body of %d bytes exceeds the server's %d", wl, i, len(r.body), serve.MaxBodyBytes)
			}
			if err := admissible(r); (err == nil) != (r.status == 200) {
				t.Fatalf("%s request %d (want status %d): admissible = %v; body %.300s", wl, i, r.status, err, r.body)
			}
		}
	}
}

// admissible runs a request body through the server's decoders and the
// limits its handlers apply before verifying.
func admissible(r *request) error {
	switch r.path {
	case pathVerify:
		req, err := serve.DecodeVerifyRequest(bytes.NewReader(r.body))
		if err != nil {
			return err
		}
		return buildable(req)
	case pathBatch:
		var batch serve.BatchRequest
		if err := decodeStrict(r.body, &batch); err != nil {
			return err
		}
		if n := len(batch.Requests); n == 0 || n > 64 {
			return errors.New("batch size outside 1..64")
		}
		for i := range batch.Requests {
			body, _ := json.Marshal(batch.Requests[i])
			req, err := serve.DecodeVerifyRequest(bytes.NewReader(body))
			if err != nil {
				return err
			}
			if err := buildable(req); err != nil {
				return err
			}
		}
		return nil
	case pathDelta:
		req, err := serve.DecodeDeltaRequest(bytes.NewReader(r.body))
		if err != nil {
			return err
		}
		if err := buildable(&req.Base); err != nil {
			return err
		}
		_, err = r.delta.diff()
		return err
	case pathGraph:
		var req serve.GraphVerifyRequest
		if err := decodeStrict(r.body, &req); err != nil {
			return err
		}
		if _, err := cdg.ParseGraphMode(req.Mode); err != nil {
			return err
		}
		g, err := parseGraph(&req)
		if err != nil {
			return err
		}
		if g.Edges.NumNodes() > 4096 || g.Edges.NumEdges() > 1<<17 {
			return errors.New("graph over the channel or edge limit")
		}
		if req.Mode == "escape" && len(req.Escape) == 0 {
			return errors.New("escape mode without an escape set")
		}
		for _, v := range req.Escape {
			if v < 0 || v >= g.Edges.NumNodes() {
				return errors.New("escape channel out of range")
			}
		}
		return nil
	}
	return errors.New("unknown path " + r.path)
}

// buildable applies the checks the server runs when it builds a decoded
// design: the chain or turn list parses and implies at most 8 VCs per
// dimension.
func buildable(req *serve.VerifyRequest) error {
	d := &design{kind: req.Network.Kind, sizes: req.Network.Sizes, chain: req.Chain, noUI: req.NoUITurns, turns: req.Turns}
	_, vcs, err := d.turnSet()
	if err != nil {
		return err
	}
	for _, v := range vcs {
		if v > 8 {
			return errors.New("design implies more than 8 VCs")
		}
	}
	return nil
}

func TestColdNeverRepeatsAVerifyKey(t *testing.T) {
	seen := map[uint64]bool{}
	for i, r := range take(t, wlCold, 5, 2000) {
		d := r.designs[0]
		ts, vcs, err := d.turnSet()
		if err != nil {
			t.Fatal(err)
		}
		key, _ := cdg.VerifyKey(d.network(), vcs, ts)
		if seen[key] {
			t.Fatalf("request %d repeats verify key %x", i, key)
		}
		seen[key] = true
	}
}

func TestDeltaDiffsAreValid(t *testing.T) {
	gen := newDeltaGen(11)
	dws := make([]*cdg.DeltaWorkspace, len(gen.bases))
	for i, b := range gen.bases {
		dw, err := cdg.NewDeltaWorkspace(b.net, b.vcs, b.ts)
		if err != nil {
			t.Fatal(err)
		}
		dws[i] = dw
	}
	toggles := 0
	for i := 0; i < 300; i++ {
		r := gen.next().delta
		diff, err := r.diff()
		if err != nil {
			t.Fatal(err)
		}
		if r.toggles() {
			toggles++
		}
		if _, err := dws[r.base.idx].VerifyDiffJobs(diff, 1); err != nil {
			t.Fatalf("diff %d %+v: %v (ErrBadDiff: %t)", i, r.spec(), err, errors.Is(err, cdg.ErrBadDiff))
		}
	}
	if toggles < 100 {
		t.Errorf("%d of 300 diffs toggle turns, want about half", toggles)
	}
}

func TestGraphBodiesFitHalfAMebibyte(t *testing.T) {
	const limit = 512 << 10
	for i, r := range take(t, wlGraph, 9, 200) {
		if len(r.body) > limit {
			t.Fatalf("request %d: %d-byte body", i, len(r.body))
		}
	}
	// Body size grows with every dragonfly parameter, so the largest shape
	// bounds them all.
	for _, vcs := range []int{1, 2} {
		base := newGraphBase(topology.Dragonfly{Groups: 17, Routers: 8, Terminals: 4}, vcs)
		for _, text := range []bool{false, true} {
			r := &graphReq{base: base, mode: cdg.ModeEscape, text: text}
			if n := len(r.render()); n > limit {
				t.Errorf("largest graph, %d VCs, text %t: %d-byte body", vcs, text, n)
			}
		}
	}
}

func TestNearestRankQuantiles(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{seq(10), 0.5, 5},
		{seq(10), 0.1, 1},
		{seq(10), 0.99, 10},
		{seq(1000), 0.99, 990},
		{seq(1000), 0.5, 500},
		{seq(1), 0.99, 1},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(1..%d, %v) = %v, want %v", len(c.xs), c.q, got, c.want)
		}
	}
}

func TestTailGuard(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %v) = %t, want %t", c.n, c.q, got, c.want)
		}
	}
}

func TestBoundsWithFloors(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10, Floor: 0.05}
	higher := metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m         metricDef
		base, cur float64
		want      bool
	}{
		{lower, 0.1, 0.149, false}, // inside the floor although 49% worse
		{lower, 0.1, 0.151, true},
		{lower, 10, 10.9, false},
		{lower, 10, 11.1, true},
		{lower, 10, 5, false},
		{higher, 100, 91, false},
		{higher, 100, 89, true},
		{higher, 100, 150, false},
	} {
		if got := c.m.regressed(c.base, c.cur); got != c.want {
			t.Errorf("%s: regressed(%v, %v) = %t, want %t", c.m.Name, c.base, c.cur, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) and ([1, 2, 3, 4], n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestWindowKeepsLeastStolenSlices(t *testing.T) {
	part := func(steal, speed float64, lat ...float64) slice {
		st := newLoadStats()
		st.attempted, st.channels, st.latMs = len(lat), 10, lat
		return slice{stats: st, elapsed: time.Second, speed: speed, cpu: 0.5, steal: steal}
	}
	parts := []slice{
		part(0.30, 1, 100, 100), // stolen: only counted
		part(0, 2, 1, 2),
		part(0.01, 0.5, 4),
	}
	var w window
	w.summarize(parts, 2)
	if w.measured != 3 || w.keptSlices != 2 || w.all.attempted != 5 || w.kept.attempted != 3 {
		t.Fatalf("measured %d kept %d, attempted %d of which kept %d; want 3, 2, 5, 3",
			w.measured, w.keptSlices, w.all.attempted, w.kept.attempted)
	}
	if w.kept.channels != 20 || w.elapsed != 2*time.Second || w.refSeconds != 2.5 || w.refCPU != 1.25 {
		t.Errorf("kept channels %d, elapsed %v, ref seconds %v, ref CPU %v; want 20, 2s, 2.5, 1.25",
			w.kept.channels, w.elapsed, w.refSeconds, w.refCPU)
	}
	if got := strings.Trim(fmt.Sprint(w.kept.latMs), "[]"); got != "2 4 2" {
		t.Errorf("kept latencies %s, want each scaled by its slice's speed: 2 4 2", got)
	}
	if math.Abs(w.steal-0.31/3) > 1e-12 {
		t.Errorf("steal share %v, want %v", w.steal, 0.31/3)
	}
	if w.p99Fit || w.p99Blocks != 1 {
		t.Errorf("p99 fitted %t over %d blocks, want no fit over 1 block", w.p99Fit, w.p99Blocks)
	}
}

func TestWindowFitsP99OverEnoughBlocks(t *testing.T) {
	var parts []slice
	for i := 0; i < minFitBlocks+2; i++ {
		steal := 0.02 * float64(i)
		st := newLoadStats()
		for j := 0; j < 1000; j++ {
			st.latMs = append(st.latMs, 1+10*steal) // every block's p99 on one line
		}
		st.attempted = len(st.latMs)
		parts = append(parts, slice{stats: st, elapsed: time.Second, speed: 1, steal: steal})
	}
	var w window
	w.summarize(parts, minFitBlocks)
	if !w.p99Fit || w.p99Blocks != minFitBlocks+2 || math.Abs(w.p99-1) > 1e-9 || math.Abs(w.p99Slope-10) > 1e-9 {
		t.Errorf("p99 %v slope %v over %d blocks (fitted %t), want 1 and 10 over %d, fitted",
			w.p99, w.p99Slope, w.p99Blocks, w.p99Fit, minFitBlocks+2)
	}
}

func TestTailBlocksHoldEnoughSamples(t *testing.T) {
	part := func(n int, steal, lat float64) slice {
		st := newLoadStats()
		for i := 0; i < n; i++ {
			st.latMs = append(st.latMs, lat)
		}
		return slice{stats: st, elapsed: time.Second, steal: steal}
	}
	for _, c := range []struct {
		name  string
		parts []slice
		want  []tailBlock
	}{
		{"one slice each", []slice{part(1000, 0, 1), part(1200, 0.2, 3)},
			[]tailBlock{{0, 1}, {0.2, 3}}},
		{"slices joined", []slice{part(600, 0, 1), part(600, 0.1, 2), part(500, 0.3, 3), part(500, 0.3, 3)},
			[]tailBlock{{0.05, 2}, {0.3, 3}}},
		{"remainder joins the last block", []slice{part(1000, 0, 1), part(400, 0.4, 5)},
			[]tailBlock{{0.2, 5}}},
		{"too few samples", []slice{part(300, 0.1, 2), part(300, 0.1, 2)},
			[]tailBlock{{0.1, 2}}},
	} {
		got := tailBlocks(c.parts)
		if len(got) != len(c.want) {
			t.Errorf("%s: %d blocks %v, want %v", c.name, len(got), got, c.want)
			continue
		}
		for i := range got {
			if math.Abs(got[i].steal-c.want[i].steal) > 1e-12 || got[i].p99 != c.want[i].p99 {
				t.Errorf("%s: block %d = %+v, want %+v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

func TestZeroStealP99(t *testing.T) {
	line := func(a, b float64, steals ...float64) []tailBlock {
		out := make([]tailBlock, len(steals))
		for i, s := range steals {
			out[i] = tailBlock{steal: s, p99: a + b*s}
		}
		return out
	}
	odd := line(1.25, 12, 0.01, 0.05, 0.1, 0.2, 0.3)
	odd[2].p99 = 40 // one disturbed block moves neither slope nor intercept
	for _, c := range []struct {
		name       string
		blocks     []tailBlock
		p99, slope float64
	}{
		{"on a line", line(1.25, 12, 0.3, 0, 0.1, 0.05), 1.25, 12},
		{"one odd block", odd, 1.25, 12},
		{"one steal level", []tailBlock{{0.1, 3}, {0.1, 2}, {0.1, 4}}, 3, 0},
		{"slope never negative", line(5, -10, 0, 0.1, 0.2), 4, 0},
		{"one block", []tailBlock{{0.2, 7}}, 7, 0},
		// Half the slopes are 0, so the line runs flat at the heavily
		// stolen blocks' 10.
		{"capped by the least stolen", []tailBlock{{0, 1}, {0.01, 1}, {0.02, 1},
			{0.4, 10}, {0.5, 10}, {0.6, 10}, {0.7, 10}, {0.8, 10}, {0.9, 10}}, 1, 0},
	} {
		p99, slope := zeroStealP99(c.blocks)
		if math.Abs(p99-c.p99) > 1e-9 || math.Abs(slope-c.slope) > 1e-9 {
			t.Errorf("%s: p99 %v slope %v, want %v and %v", c.name, p99, slope, c.p99, c.slope)
		}
	}
}

const promFixture = `# HELP ebda_verify_cache_hits_total verify cache probes answered from a memoized report
# TYPE ebda_verify_cache_hits_total counter
ebda_verify_cache_hits_total 12
ebda_serve_verdicts_total{provenance="cache"} 7
ebda_phase_seconds_total{phase="cdg.verify"} 0.5
ebda_phase_seconds_total{phase="serve.verify"} 1.25
ebda_phase_seconds_total{phase="serve.batch"} 0.25
`

func TestPrometheusDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(promFixture))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(strings.NewReplacer(
		"hits_total 12", "hits_total 40",
		`"cache"} 7`, `"cache"} 9`,
		`"cdg.verify"} 0.5`, `"cdg.verify"} 2`,
		`"serve.verify"} 1.25`, `"serve.verify"} 3.25`,
		`"serve.batch"} 0.25`, `"serve.batch"} 1.25`,
	).Replace(promFixture)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got, want float64
	}{
		{after.delta(before, "ebda_verify_cache_hits_total"), 28},
		{after.delta(before, `ebda_serve_verdicts_total{provenance="cache"}`), 2},
		{after.delta(before, "ebda_absent_total"), 0},
		{after.phaseSeconds(before, "cdg.verify"), 1.5},
		{after.servePhaseSeconds(before), 3},
	} {
		if c.got != c.want {
			t.Errorf("got %v, want %v", c.got, c.want)
		}
	}
	if _, err := parseProm(strings.NewReader("ebda_x_total twelve\n")); err == nil {
		t.Error("a non-numeric sample parsed")
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// serve.verify [0,100) > cache.lookup [1,3), flight [5,95) >
	// queue.wait [5,10), cdg.verify [10,90) > cdg.edges [12,60),
	// cdg.kahn [55,88): the children of cdg.verify overlap.
	tj := trace.TraceJSON{ID: "local-0", Spans: []trace.SpanJSON{
		{ID: "local:0", Name: "serve.verify", StartMicros: 0, DurMicros: 100},
		{ID: "local:1", Parent: "local:0", Name: "cache.lookup", StartMicros: 1, DurMicros: 2},
		{ID: "local:2", Parent: "local:0", Name: "flight", StartMicros: 5, DurMicros: 90},
		{ID: "local:3", Parent: "local:2", Name: "queue.wait", StartMicros: 5, DurMicros: 5},
		{ID: "local:4", Parent: "local:2", Name: "cdg.verify", StartMicros: 10, DurMicros: 80},
		{ID: "local:5", Parent: "local:4", Name: "cdg.edges", StartMicros: 12, DurMicros: 48},
		{ID: "local:6", Parent: "local:4", Name: "cdg.kahn", StartMicros: 55, DurMicros: 33},
	}}
	st := selfTimes(tj)
	want := map[string]int64{"cache.lookup": 2, "flight": 5, "queue.wait": 5, "cdg.verify": 4, "cdg.edges": 48, "cdg.kahn": 33}
	for name, v := range want {
		if st.self[name] != v || st.count[name] != 1 {
			t.Errorf("%s: self %d (count %d), want %d", name, st.self[name], st.count[name], v)
		}
	}
	if st.root != 100 || st.covered != 92 {
		t.Errorf("root %d covered %d, want 100 and 92", st.root, st.covered)
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T, root string) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestDefinitionsMatchBenchmarkFile(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf := readBenchmarkFile(t, root)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	if len(bf.EndToEnd) != len(e2eMetrics) || len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, benchmark defines %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(e2eMetrics), len(layerMetrics))
	}
	for i, m := range e2eMetrics {
		f := bf.EndToEnd[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark defines %+v", i, f, m)
		}
	}
	for i, m := range layerMetrics {
		f := bf.PerLayer[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, benchmark defines %+v", i, f, m)
		}
	}
	seen := map[string]bool{}
	for _, n := range append(names, metricNames(append(e2eMetrics, layerMetrics...))...) {
		if !valid.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	if len(workloadNames) > 8 || len(e2eMetrics) > 16 || len(layerMetrics) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8, 16 and 128",
			len(workloadNames), len(e2eMetrics), len(layerMetrics))
	}
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

func keys(s metricSet) []string {
	var out []string
	for _, d := range append(e2eMetrics, layerMetrics...) {
		if _, ok := s[d.Name]; ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// TestSmoke runs every workload against a freshly built ebda-serve with a
// 1 s window and a 64-request traced replay: no request may fail, the
// oracle must agree, and the printed metrics must be exactly those
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ebda-serve")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	var buildLog bytes.Buffer
	bin, err := buildServer(root, t.TempDir(), &buildLog)
	if err != nil {
		t.Fatalf("%v\n%s", err, buildLog.Bytes())
	}
	for _, wl := range workloadNames {
		rep, err := runBenchmark(runConfig{
			workload: wl, seed: 1, window: time.Second, warmup: 300 * time.Millisecond,
			trace: true, launches: 2, replay: 64, sample: 64, serveBin: bin,
		})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if rep.attempted == 0 || rep.failed != 0 {
			t.Errorf("%s: %d of %d requests failed", wl, rep.failed, rep.attempted)
		}
		for _, c := range rep.checks {
			// One second yields too few samples to trust a p99.
			if c.err != nil && c.name != "p99_samples" {
				t.Errorf("%s: check %s: %v", wl, c.name, c.err)
			}
		}
		if got, want := keys(rep.e2e), metricNames(e2eMetrics); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: end-to-end metrics %v, want %v", wl, got, want)
		}
		if got, want := keys(rep.layers), metricNames(layerMetrics); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: per-layer metrics %v, want %v", wl, got, want)
		}
		for _, layers := range []bool{false, true} {
			var out bytes.Buffer
			if err := rep.print(&out, layers); err != nil {
				t.Fatal(err)
			}
			var last string
			for sc := bufio.NewScanner(&out); sc.Scan(); {
				last = sc.Text()
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("%s: last line %q: %v", wl, last, err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Errorf("%s: result keys %v", wl, res)
			}
		}
	}
}

// The oracle must catch a wrong verdict, not only accept right ones.
func TestOracleRejectsWrongVerdicts(t *testing.T) {
	d := &design{kind: "mesh", sizes: []int{8, 8}, chain: "PA[X+ X- Y-] -> PB[Y+]"}
	ts, vcs, err := d.turnSet()
	if err != nil {
		t.Fatal(err)
	}
	rep := cdg.VerifyTurnSet(d.network(), vcs, ts)
	good := serve.VerifyResponse{Network: rep.Network, Channels: rep.Channels, Edges: rep.Edges, Acyclic: rep.Acyclic}
	o := verifyOracle{}
	if err := o.checkVerify(d, good); err != nil {
		t.Fatalf("correct verdict rejected: %v", err)
	}
	bad := good
	bad.Acyclic = false
	if o.checkVerify(d, bad) == nil {
		t.Error("a flipped verdict passed the oracle")
	}
	bad = good
	bad.Edges++
	if o.checkVerify(d, bad) == nil {
		t.Error("a wrong edge count passed the oracle")
	}
	// A cyclic design's witness must match too.
	cyc := &design{kind: "mesh", sizes: []int{4, 4}, turns: "X+>Y+,Y+>X-,X->Y-,Y->X+"}
	ts, vcs, _ = cyc.turnSet()
	crep := cdg.VerifyTurnSet(cyc.network(), vcs, ts)
	if crep.Acyclic {
		t.Fatal("the probe design should be cyclic")
	}
	wrong := serve.VerifyResponse{Network: crep.Network, Channels: crep.Channels, Edges: crep.Edges, Cycle: "n0->n1 X1+ => (repeat)"}
	if o.checkVerify(cyc, wrong) == nil {
		t.Error("a wrong cycle witness passed the oracle")
	}
}
