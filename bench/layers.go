package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"

	"ebda/internal/cdg"
	"ebda/internal/obs"
	"ebda/internal/obs/trace"
	"ebda/internal/serve"
)

// measureLayers computes every per-layer metric. Window counters come
// from the /metrics scrapes around the measured window; span metrics
// from a traced replay of the workload on a second server; the rest from
// timing public functions in this process on each layer's reference
// inputs, drawn from the replay seed, so every workload reports every
// layer.
func measureLayers(cfg runConfig, w *window) (metricSet, error) {
	m := metricSet{}
	windowLayers(w.before, w.after, w.all, m)
	replaySeed := streamSeed(cfg.seed, "replay")
	_, gen, err := newWorkload(cfg.workload, replaySeed)
	if err != nil {
		return nil, err
	}
	rep, err := tracedReplay(cfg.serveBin, gen, cfg.replay)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if err := replayLayers(rep, m); err != nil {
		return nil, err
	}
	// The probes below time single calls; a collection left over from
	// earlier phases would land in whichever call it interrupts.
	runtime.GC()
	refs := cfg.replay / 4
	perCall := map[string]float64{}
	err = inProcessPhases(perCall, func() error { return coldLayers(newColdGen(replaySeed), refs, m) },
		"cdg.verify", "cdg.addTurnEdges", "cdg.acyclicity")
	if err != nil {
		return nil, err
	}
	runtime.GC()
	meshRates(m)
	parallelSpeedups(m)
	runtime.GC()
	if err := inProcessPhases(perCall, func() error { return deltaLayers(newDeltaGen(replaySeed), refs, m) }, "cdg.delta"); err != nil {
		return nil, err
	}
	runtime.GC()
	if err := inProcessPhases(perCall, func() error { return graphLayers(newGraphGen(replaySeed), refs, m) }, "cdg.mode"); err != nil {
		return nil, err
	}
	for _, p := range phaseMetrics {
		if w.after.delta(w.before, `ebda_phase_spans_total{phase="`+p.phase+`"}`) == 0 {
			m.set(layerMetrics, p.metric, perCall[p.phase])
		}
	}
	return m, nil
}

// phaseMetrics are the per-request phase times of the window. Where the
// window's traffic never reaches a phase (cdg.verify on verify_hot,
// cdg.delta outside verify_delta), such a metric would read 0 on every
// run; it then takes the phase's time per call over the in-process
// reference calls instead.
var phaseMetrics = []struct{ metric, phase string }{
	{"cdg.verify_ms_per_req", "cdg.verify"},
	{"cdg.edges_ms_per_req", "cdg.addTurnEdges"},
	{"cdg.acyclicity_ms_per_req", "cdg.acyclicity"},
	{"cdg.delta_ms_per_req", "cdg.delta"},
	{"cdg.mode_ms_per_req", "cdg.mode"},
}

// inProcessPhases runs fn and records in perCall, for each named phase,
// the milliseconds per call this process's own phase timers saw during
// it.
func inProcessPhases(perCall map[string]float64, fn func() error, phases ...string) error {
	before := obs.Default.Snapshot()
	if err := fn(); err != nil {
		return err
	}
	d := obs.Default.Snapshot().Sub(before)
	for _, name := range phases {
		p, _ := d.Phase(name)
		perCall[name] = ratio(p.TotalSeconds*1e3, float64(p.Count))
	}
	return nil
}

// windowLayers derives the per-layer counter metrics of the measured
// window from the scrapes taken right before and after it.
func windowLayers(before, after promText, win *loadStats, m metricSet) {
	d := func(series string) float64 { return after.delta(before, series) }
	set := func(name string, v float64) { m.set(layerMetrics, name, v) }
	perReq := func(seconds float64) float64 { return ratio(seconds*1e3, float64(win.attempted)) }
	set("serve.handler_ms_per_req", perReq(after.servePhaseSeconds(before)))
	set("serve.cache_answer_rate", ratio(float64(win.provenance["cache"]), float64(win.verdicts)))
	hits, misses := d("ebda_verify_cache_hits_total"), d("ebda_verify_cache_misses_total")
	set("cdg.verify_cache_hit_rate", ratio(hits, hits+misses))
	set("cdg.cache_evictions", d("ebda_verify_cache_evictions_total"))
	set("cdg.workspace_pool_reuse_rate", ratio(d("ebda_workspace_pool_reuses_total"), d("ebda_workspace_pool_gets_total")))
	for _, p := range phaseMetrics {
		set(p.metric, perReq(after.phaseSeconds(before, p.phase)))
	}
	modes := 0.0
	for _, mode := range []string{"loop", "liveness", "escape", "subrel"} {
		modes += d(`ebda_cdg_mode_verifies_total{mode="` + mode + `"}`)
	}
	deltas := d("ebda_cdg_delta_verifies_total")
	engine := d("ebda_cdg_verifies_total") + deltas + modes
	set("cdg.kahn_rounds_per_verify", ratio(d("ebda_cdg_kahn_rounds_total"), engine))
	set("cdg.residual_dfs_rate", ratio(d("ebda_cdg_residual_dfs_total"), engine))
	set("cdg.delta_incremental_rate", ratio(d("ebda_cdg_delta_incremental_total"), deltas))
	set("cdg.delta_fallback_rate", ratio(d("ebda_cdg_delta_fallbacks_total"), deltas))
	set("cdg.delta_pool_reuse_rate", ratio(d("ebda_delta_pool_reuses_total"), d("ebda_delta_pool_gets_total")))
	mh, mm := d("ebda_mode_cache_hits_total"), d("ebda_mode_cache_misses_total")
	set("cdg.mode_cache_hit_rate", ratio(mh, mh+mm))
}

// replayed is one request of the traced replay.
type replayed struct {
	req  *request
	rtt  float64 // µs, send to last body byte
	body []byte
	st   spanTimes
}

// traceEvery is how many replay requests go by between reads of
// /debug/traces; it stays below the recorder's 256-trace main lane, so
// no trace is overwritten before it is read.
const traceEvery = 128

// tracedReplay sends n requests of gen, one at a time, to a fresh server
// that retains every trace, and pairs each request with its trace.
func tracedReplay(bin string, gen generator, n int) ([]replayed, error) {
	s, err := startServer(bin, "-trace-sample", "1")
	if err != nil {
		return nil, err
	}
	c := newClient(s.url)
	defer c.close()
	traces := map[string]trace.TraceJSON{}
	fetch := func() error {
		body, err := c.get("/debug/traces")
		if err != nil {
			return err
		}
		var page struct {
			Traces []trace.TraceJSON `json:"traces"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return fmt.Errorf("/debug/traces: %w", err)
		}
		for _, tj := range page.Traces {
			traces[tj.ID] = tj
		}
		return nil
	}
	out := make([]replayed, 0, n)
	for i := 0; i < n && err == nil; i++ {
		r := gen.next()
		status, body, rtt, cerr := c.call(r)
		if cerr == nil && status != r.status {
			cerr = fmt.Errorf("%s answered %d, want %d: %.200s", r.path, status, r.status, body)
		}
		if err = cerr; err == nil {
			out = append(out, replayed{req: r, rtt: float64(rtt.Nanoseconds()) / 1e3, body: body})
			if (i+1)%traceEvery == 0 {
				err = fetch()
			}
		}
	}
	if err == nil {
		err = fetch()
	}
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	// The server is fresh and answers one request at a time, so the i-th
	// request minted trace sequence number i.
	for i := range out {
		tj, ok := traces["local-"+strconv.FormatUint(uint64(i), 16)]
		if !ok {
			return nil, fmt.Errorf("replay request %d left no trace", i)
		}
		out[i].st = selfTimes(tj)
	}
	return out, nil
}

// replayLayers derives the serving-layer metrics from the traced replay
// plus in-process decode and encode timings of the same bodies.
func replayLayers(rep []replayed, m metricSet) error {
	set := func(name string, v float64) { m.set(layerMetrics, name, v) }
	var transport, dec, enc []float64
	var covered, root float64
	self := map[string]int64{}
	count := map[string]int{}
	for _, r := range rep {
		d, err := decodeMicros(r.req)
		if err != nil {
			return err
		}
		b, err := buildMicros(r.req)
		if err != nil {
			return err
		}
		e, err := encodeMicros(r)
		if err != nil {
			return err
		}
		dec = append(dec, d)
		if r.req.status == 200 {
			enc = append(enc, e)
		}
		transport = append(transport, r.rtt-float64(r.st.root))
		covered += float64(r.st.covered) + d + b + e
		root += float64(r.st.root)
		for name, v := range r.st.self {
			self[name] += v
			count[name] += r.st.count[name]
		}
	}
	perSpan := func(name string) float64 { return ratio(float64(self[name]), float64(count[name])) }
	set("http.transport_us", median(transport))
	set("serve.decode_us", mean(dec))
	set("serve.encode_us", mean(enc))
	set("serve.cache_lookup_us", perSpan("cache.lookup"))
	set("serve.queue_wait_us", perSpan("queue.wait"))
	set("serve.flight_self_us", perSpan("flight"))
	set("trace.coverage", ratio(covered, root))
	return nil
}

// decodeMicros times the server's decoder for the request's endpoint on
// its body. Expected-400 bodies are timed too: the server decodes them.
func decodeMicros(r *request) (float64, error) {
	t0 := now()
	var err error
	switch r.path {
	case pathVerify:
		_, err = serve.DecodeVerifyRequest(bytes.NewReader(r.body))
	case pathBatch:
		err = decodeStrict(r.body, &serve.BatchRequest{})
	case pathDelta:
		_, err = serve.DecodeDeltaRequest(bytes.NewReader(r.body))
	case pathGraph:
		err = decodeStrict(r.body, &serve.GraphVerifyRequest{})
	}
	el := micros(t0)
	if err != nil && r.status == 200 {
		return 0, fmt.Errorf("decode %s: %w", r.path, err)
	}
	return el, nil
}

// buildMicros times the work the handler does between decoding a
// request and probing the cache, which no span covers: deriving turn
// sets and cache keys, lowering a diff, or parsing a graph and keying it.
func buildMicros(r *request) (float64, error) {
	if r.status != 200 {
		return 0, nil
	}
	var req serve.GraphVerifyRequest
	if r.graph != nil {
		if err := decodeStrict(r.body, &req); err != nil {
			return 0, err
		}
	}
	t0 := now()
	switch {
	case r.graph != nil:
		g, err := parseGraph(&req)
		if err != nil {
			return 0, err
		}
		cdg.ModeKey(g.Edges, r.graph.mode, g.Inputs, g.Outputs, req.Escape)
	case r.delta != nil:
		base := r.delta.base.design
		ts, vcs, err := base.turnSet()
		if err != nil {
			return 0, err
		}
		diff, err := r.delta.diff()
		if err != nil {
			return 0, err
		}
		cdg.DeltaKey(base.network(), vcs, ts, diff)
	default:
		for _, d := range r.designs {
			ts, vcs, err := d.turnSet()
			if err != nil {
				return 0, err
			}
			cdg.VerifyKey(d.network(), vcs, ts)
		}
	}
	return micros(t0), nil
}

// encodeMicros times encoding the response the way the server writes it.
func encodeMicros(r replayed) (float64, error) {
	if r.req.status != 200 {
		return 0, nil
	}
	var v any
	switch r.req.path {
	case pathVerify:
		v = &serve.VerifyResponse{}
	case pathBatch:
		v = &serve.BatchResponse{}
	case pathDelta:
		v = &serve.DeltaResponse{}
	case pathGraph:
		v = &serve.GraphVerifyResponse{}
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		return 0, err
	}
	t0 := now()
	err := json.NewEncoder(io.Discard).Encode(v)
	return micros(t0), err
}

// newTracer mints in-process traces whose spans are read back, never
// retained.
func newTracer() *trace.Tracer {
	return trace.New(trace.Config{Fragment: "bench", SlowThreshold: -1})
}

// tracedCall runs fn under a fresh trace and returns the call's wall time
// in µs with the trace's per-span self times.
func tracedCall(tr *trace.Tracer, fn func(ctx context.Context) error) (float64, spanTimes, error) {
	t := tr.Start("bench")
	ctx := trace.NewContext(context.Background(), t)
	t0 := now()
	err := fn(ctx)
	el := micros(t0)
	st := selfTimes(t.Export())
	t.Finish(200)
	return el, st, err
}

// coldLayers times the build path of n fresh designs layer by layer:
// network, turn set, cache key, graph allocation, then a traced
// verification on a fresh workspace, and for cyclic designs the residual
// cycle search.
func coldLayers(gen *coldGen, n int, m metricSet) error {
	set := func(name string, v float64) { m.set(layerMetrics, name, v) }
	tr := newTracer()
	var build, turns, key, alloc, edges, kahn, verify, dfs []float64
	for i := 0; i < n; i++ {
		d := gen.next().designs[0]
		t0 := now()
		net := d.network()
		net.Links()
		build = append(build, micros(t0))
		t0 = now()
		ts, vcs, err := d.turnSet()
		turns = append(turns, micros(t0))
		if err != nil {
			return err
		}
		t0 = now()
		cdg.VerifyKey(net, vcs, ts)
		key = append(key, micros(t0))
		t0 = now()
		cdg.NewGraph(net, vcs)
		alloc = append(alloc, micros(t0))
		ws := cdg.NewWorkspace(net, vcs)
		var rep cdg.Report
		_, st, err := tracedCall(tr, func(ctx context.Context) (err error) {
			rep, err = ws.VerifyTurnSetCtx(ctx, ts, 1)
			return err
		})
		if err != nil {
			return err
		}
		edges = append(edges, float64(st.self["cdg.edges"]))
		kahn = append(kahn, float64(st.self["cdg.kahn"]))
		verify = append(verify, float64(st.self["cdg.verify"]))
		if !rep.Acyclic {
			g := ws.Graph()
			t0 = now()
			g.AcyclicJobs(1) //ebda:allow verifygate times the peel alone to isolate the residual DFS cost
			peel := micros(t0)
			t0 = now()
			g.FindCycleJobs(1) //ebda:allow verifygate times peel plus residual DFS on the same graph
			dfs = append(dfs, micros(t0)-peel)
		}
	}
	set("topology.build_us", mean(build))
	set("core.turns_us", mean(turns))
	set("cdg.key_us", mean(key))
	set("cdg.graph_alloc_us", mean(alloc))
	set("cdg.edges_us", mean(edges))
	set("cdg.kahn_us", mean(kahn))
	set("cdg.verify_self_us", mean(verify))
	set("cdg.dfs_us", mean(dfs))
	return nil
}

// rateChain is the two-VC design the mesh-size and parallelism probes
// verify.
const rateChain = "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"

// probeReps is how many timed repetitions each probe takes a median of.
const probeReps = 15

// meshRates reports channels per second of a pooled verification of
// rateChain on 16x16 to 64x64 meshes.
func meshRates(m metricSet) {
	for _, n := range []int{16, 32, 48, 64} {
		d := &design{kind: "mesh", sizes: []int{n, n}, chain: rateChain}
		net := d.network()
		ts, vcs, err := d.turnSet()
		if err != nil {
			panic(err) // fixed design
		}
		rep := cdg.VerifyTurnSetJobs(net, vcs, ts, 1) // fills the workspace pool
		var times []float64
		for i := 0; i < probeReps; i++ {
			t0 := now()
			cdg.VerifyTurnSetJobs(net, vcs, ts, 1)
			times = append(times, micros(t0)/1e6)
		}
		m.set(layerMetrics, "cdg.rate_mesh"+strconv.Itoa(n), float64(rep.Channels)/median(times))
	}
}

// parallelSpeedups reports how much faster edge construction and the
// Kahn peel of rateChain on a 64x64 mesh run with one worker per CPU
// than with one worker.
func parallelSpeedups(m metricSet) {
	d := &design{kind: "mesh", sizes: []int{64, 64}, chain: rateChain}
	net := d.network()
	ts, vcs, err := d.turnSet()
	if err != nil {
		panic(err) // fixed design
	}
	jobs := runtime.NumCPU()
	var e1, eN, p1, pN []float64
	for i := 0; i < probeReps; i++ {
		g1, gN := cdg.NewGraph(net, vcs), cdg.NewGraph(net, vcs)
		t0 := now()
		g1.AddTurnEdgesJobs(ts, 1)
		e1 = append(e1, micros(t0))
		t0 = now()
		gN.AddTurnEdgesJobs(ts, jobs)
		eN = append(eN, micros(t0))
		t0 = now()
		g1.AcyclicJobs(1) //ebda:allow verifygate measures the one-worker peel the server runs
		p1 = append(p1, micros(t0))
		t0 = now()
		g1.AcyclicJobs(jobs) //ebda:allow verifygate measures the peel with one worker per CPU
		pN = append(pN, micros(t0))
	}
	m.set(layerMetrics, "cdg.edges_parallel_x", ratio(median(e1), median(eN)))
	m.set(layerMetrics, "cdg.peel_parallel_x", ratio(median(p1), median(pN)))
}

// deltaLayers times delta workspace set-up per base and n traced diffs
// against retained workspaces, each diff's time taken relative to a full
// verification of its base.
func deltaLayers(gen *deltaGen, n int, m metricSet) error {
	set := func(name string, v float64) { m.set(layerMetrics, name, v) }
	ctx := context.Background()
	dws := make([]*cdg.DeltaWorkspace, len(gen.bases))
	full := make([]float64, len(gen.bases))
	var setup []float64
	for i, b := range gen.bases {
		var build, verify []float64
		for k := 0; k < 3; k++ {
			t0 := now()
			dw, err := cdg.NewDeltaWorkspaceCtx(ctx, b.net, b.vcs, b.ts, 1)
			build = append(build, micros(t0))
			if err != nil {
				return err
			}
			dws[i] = dw
		}
		setup = append(setup, median(build))
		cdg.VerifyTurnSetJobs(b.net, b.vcs, b.ts, 1) // fills the workspace pool
		for k := 0; k < probeReps; k++ {
			t0 := now()
			cdg.VerifyTurnSetJobs(b.net, b.vcs, b.ts, 1)
			verify = append(verify, micros(t0))
		}
		full[i] = median(verify)
	}
	tr := newTracer()
	var patch, repeel, linkRatio, toggleRatio []float64
	for i := 0; i < n; i++ {
		r := gen.next().delta
		diff, err := r.diff()
		if err != nil {
			return err
		}
		idx := r.base.idx
		el, st, err := tracedCall(tr, func(ctx context.Context) error {
			_, err := dws[idx].VerifyDiffCtx(ctx, diff, 1)
			return err
		})
		if err != nil {
			return fmt.Errorf("delta diff %+v: %w", r.spec(), err)
		}
		patch = append(patch, float64(st.self["cdg.patch"]))
		repeel = append(repeel, float64(st.self["cdg.repeel"]))
		if r.toggles() {
			toggleRatio = append(toggleRatio, el/full[idx])
		} else {
			linkRatio = append(linkRatio, el/full[idx])
		}
	}
	set("cdg.delta_setup_us", mean(setup))
	set("cdg.patch_us", mean(patch))
	set("cdg.repeel_us", mean(repeel))
	set("cdg.delta_link_ratio", median(linkRatio))
	set("cdg.delta_toggle_ratio", median(toggleRatio))
	return nil
}

// graphLayers times graph parsing and uncached mode verification over at
// least n requests, drawing more until every mode has n/8 samples.
func graphLayers(gen *graphGen, n int, m metricSet) error {
	set := func(name string, v float64) { m.set(layerMetrics, name, v) }
	var parse []float64
	byMode := map[cdg.GraphMode][]float64{}
	enough := func() bool {
		for _, mode := range []cdg.GraphMode{cdg.ModeLoop, cdg.ModeLiveness, cdg.ModeEscape, cdg.ModeSubrel} {
			if len(byMode[mode]) < n/8+1 {
				return false
			}
		}
		return len(parse) >= n
	}
	for !enough() {
		r := gen.next()
		var req serve.GraphVerifyRequest
		if err := decodeStrict(r.body, &req); err != nil {
			return err
		}
		t0 := now()
		g, err := parseGraph(&req)
		parse = append(parse, micros(t0))
		if err != nil {
			return err
		}
		t0 = now()
		cdg.VerifyModeJobs(g.Edges, r.graph.mode, g.Inputs, g.Outputs, req.Escape, 1)
		byMode[r.graph.mode] = append(byMode[r.graph.mode], micros(t0))
	}
	set("graphio.parse_us", mean(parse))
	set("cdg.mode_loop_us", mean(byMode[cdg.ModeLoop]))
	set("cdg.mode_liveness_us", mean(byMode[cdg.ModeLiveness]))
	set("cdg.mode_escape_us", mean(byMode[cdg.ModeEscape]))
	set("cdg.mode_subrel_us", mean(byMode[cdg.ModeSubrel]))
	return nil
}
