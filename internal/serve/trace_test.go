package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/cluster"
	"ebda/internal/obs"
	"ebda/internal/obs/obshttp"
	"ebda/internal/obs/trace"
)

// tracedCluster is testCluster with per-replica tracers sharing one
// flight recorder, so a forwarded request's fragments land in the same
// ring and Collect can merge them.
func tracedCluster(t *testing.T, names []string, rec *trace.Recorder, metrics map[string]func() obs.Snapshot) map[string]*testReplica {
	t.Helper()
	ring, err := cluster.New(names)
	if err != nil {
		t.Fatal(err)
	}
	reps := make(map[string]*testReplica, len(names))
	muxes := make(map[string]*http.ServeMux, len(names))
	urls := make(map[string]string, len(names))
	for _, name := range names {
		mux := http.NewServeMux()
		hts := httptest.NewServer(mux)
		t.Cleanup(hts.Close)
		muxes[name] = mux
		urls[name] = hts.URL
		reps[name] = &testReplica{ts: hts}
	}
	for _, name := range names {
		peers := make(map[string]string)
		for other, u := range urls {
			if other != name {
				peers[other] = u
			}
		}
		cache := &cdg.VerifyCache{}
		cfg := Config{
			Cluster: &ClusterConfig{Self: name, Ring: ring, Peers: peers},
			Tracer: trace.New(trace.Config{
				Fragment:      name,
				SampleEvery:   1,
				SlowThreshold: -1,
				Recorder:      rec,
			}),
		}
		if metrics != nil {
			cfg.Metrics = metrics[name]
		}
		srv := NewReplica(cfg, cache)
		srv.Register(muxes[name])
		reps[name].srv = srv
		reps[name].cache = cache
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	return reps
}

// TestClusterTraceOneRequest is the tracing acceptance check: a request
// forwarded across two in-process replicas yields ONE trace containing
// the edge admission, the peer hop and the owner's peel spans, with the
// cross-replica parent links intact.
func TestClusterTraceOneRequest(t *testing.T) {
	rec := trace.NewRecorder(64, 16)
	reps := tracedCluster(t, []string{"r0", "r1"}, rec, nil)
	body, _ := designOwnedBy(t, reps["r0"].srv.cluster.ring, "r1")

	resp, err := http.Post(reps["r0"].ts.URL+"/v1/verify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Provenance != provForwarded {
		t.Fatalf("provenance = %q, want %q (fresh caches must forward to the owner)", vr.Provenance, provForwarded)
	}

	traces := trace.Collect(rec.Snapshot())
	if len(traces) != 1 {
		t.Fatalf("Collect returned %d traces, want 1 (edge and owner fragments must merge): %+v", len(traces), traces)
	}
	tj := traces[0]
	if !strings.HasPrefix(tj.ID, "r0-") {
		t.Errorf("trace ID %q does not carry the edge fragment prefix r0-", tj.ID)
	}
	if tj.Provenance != provForwarded {
		t.Errorf("trace provenance = %q, want %q", tj.Provenance, provForwarded)
	}

	// Index spans by fragment-qualified name.
	find := func(frag, name string) *trace.SpanJSON {
		for i := range tj.Spans {
			sp := &tj.Spans[i]
			if sp.Name == name && strings.HasPrefix(sp.ID, frag+":") {
				return sp
			}
		}
		t.Fatalf("span %s on fragment %s missing from merged trace: %+v", name, frag, tj.Spans)
		return nil
	}
	edgeRoot := find("r0", "serve.verify")
	if edgeRoot.Parent != "" {
		t.Errorf("edge root parent = %q, want none", edgeRoot.Parent)
	}
	lookup := find("r0", "cluster.lookup")
	forward := find("r0", "cluster.forward")
	if lookup.Parent != edgeRoot.ID || forward.Parent != edgeRoot.ID {
		t.Errorf("peer-hop spans parent = %q/%q, want edge root %q", lookup.Parent, forward.Parent, edgeRoot.ID)
	}
	peerRoot := find("r1", "peer.lookup")
	if peerRoot.Parent != lookup.ID {
		t.Errorf("owner peer.lookup parent = %q, want edge cluster.lookup %q", peerRoot.Parent, lookup.ID)
	}
	ownerRoot := find("r1", "serve.verify")
	if ownerRoot.Parent != forward.ID {
		t.Errorf("owner root parent = %q, want edge cluster.forward %q", ownerRoot.Parent, forward.ID)
	}
	// The owner computed: its peel spans must hang off its own root.
	kahn := find("r1", "cdg.kahn")
	verify := find("r1", "cdg.verify")
	if kahn.Parent != verify.ID {
		t.Errorf("owner cdg.kahn parent = %q, want owner cdg.verify %q", kahn.Parent, verify.ID)
	}
}

// TestTraceQuotientAnswer pins where a mesh verification runs: an
// acyclic design is answered by its quotient, so cdg.verify holds a
// decided cdg.quotient span and no graph build or peel, while a cyclic
// design's quotient is undecided and the concrete cdg.edges and cdg.kahn
// follow under the same cdg.verify.
func TestTraceQuotientAnswer(t *testing.T) {
	rec := trace.NewRecorder(64, 16)
	tr := trace.New(trace.Config{Fragment: "q", SampleEvery: 1, SlowThreshold: -1, Recorder: rec})
	srv := NewReplica(Config{Workers: 1, Tracer: tr}, &cdg.VerifyCache{})
	defer srv.Shutdown(context.Background())
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	seen := map[string]bool{}
	for _, c := range []struct {
		body    string
		decided string
		spans   map[string]bool // span name -> must be present
	}{
		{`{"network":{"kind":"mesh","sizes":[23,19]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`, "1",
			map[string]bool{"cdg.quotient": true, "cdg.edges": false, "cdg.kahn": false}},
		{`{"network":{"kind":"mesh","sizes":[23,19]},"turns":"X+>Y+,Y+>X-,X->Y-,Y->X+"}`, "0",
			map[string]bool{"cdg.quotient": true, "cdg.edges": true, "cdg.kahn": true}},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", c.body, resp.StatusCode)
		}
		var tj trace.TraceJSON
		for _, x := range trace.Collect(rec.Snapshot()) {
			if !seen[x.ID] {
				seen[x.ID], tj = true, x
			}
		}
		byName := map[string]trace.SpanJSON{}
		for _, sp := range tj.Spans {
			byName[sp.Name] = sp
		}
		verify, ok := byName["cdg.verify"]
		if !ok {
			t.Fatalf("%s: no cdg.verify span: %+v", c.body, tj.Spans)
		}
		for name, want := range c.spans {
			sp, got := byName[name]
			if got != want {
				t.Errorf("%s: span %s present = %t, want %t", c.body, name, got, want)
			}
			if got && sp.Parent != verify.ID {
				t.Errorf("%s: %s parent = %q, want cdg.verify %q", c.body, name, sp.Parent, verify.ID)
			}
		}
		if q := byName["cdg.quotient"]; len(q.Attrs) != 1 || q.Attrs[0] != (trace.AttrJSON{Key: "decided", Value: c.decided}) {
			t.Errorf("%s: cdg.quotient attrs %+v, want decided=%s", c.body, q.Attrs, c.decided)
		}
	}
}

// TestClusterMetricsMerge pins /v1/cluster/metrics: the merged snapshot
// equals the per-replica sum on exercised counters, an unreachable
// member is labelled rather than silently dropped, and two aggregations
// over the same state render byte-identically.
func TestClusterMetricsMerge(t *testing.T) {
	rec := trace.NewRecorder(64, 16)
	snapA := obs.Snapshot{Counters: []obs.CounterVal{{Name: "x_total", Value: 3}, {Name: "y_total", Value: 1}}}
	snapB := obs.Snapshot{Counters: []obs.CounterVal{{Name: "x_total", Value: 4}, {Name: "z_total", Value: 9}}}
	reps := tracedCluster(t, []string{"r0", "r1"}, rec, map[string]func() obs.Snapshot{
		"r0": func() obs.Snapshot { return snapA },
		"r1": func() obs.Snapshot { return snapB },
	})

	// Point r0 at a third ring member whose URL refuses connections: the
	// merge must proceed and label the gap.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	ring, err := cluster.New([]string{"r0", "r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	r0 := reps["r0"].srv
	r0.cluster.ring = ring
	r0.cluster.peers["r2"] = deadURL

	fetch := func() ([]byte, ClusterMetricsResponse) {
		resp, err := http.Get(reps["r0"].ts.URL + "/v1/cluster/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var cm ClusterMetricsResponse
		if err := json.Unmarshal(raw, &cm); err != nil {
			t.Fatal(err)
		}
		return raw, cm
	}
	rawFirst, cm := fetch()

	if got, want := cm.Replicas, []string{"r0", "r1"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("replicas = %v, want %v", got, want)
	}
	if got, want := cm.Unreachable, []string{"r2"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("unreachable = %v, want %v", got, want)
	}
	// Merged equals the per-replica sum on every exercised counter.
	for _, c := range []struct {
		name string
		want uint64
	}{{"x_total", 7}, {"y_total", 1}, {"z_total", 9}} {
		if got := cm.Merged.Counter(c.name); got != c.want {
			t.Errorf("merged %s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := cm.PerReplica["r0"].Counter("x_total"); got != 3 {
		t.Errorf("per-replica r0 x_total = %d, want 3 (provenance lost)", got)
	}
	if got := cm.PerReplica["r1"].Counter("z_total"); got != 9 {
		t.Errorf("per-replica r1 z_total = %d, want 9 (provenance lost)", got)
	}

	rawSecond, _ := fetch()
	if string(rawFirst) != string(rawSecond) {
		t.Errorf("two aggregations over identical state differ:\n%s\nvs\n%s", rawFirst, rawSecond)
	}
}

// TestCoalescedFollowerLinksLeaderTrace pins the flight fix: a follower
// joining an in-flight computation records the leader's trace ID, so
// /debug/traces can link the coalesced pair.
func TestCoalescedFollowerLinksLeaderTrace(t *testing.T) {
	rec := trace.NewRecorder(8, 4)
	tr := trace.New(trace.Config{Fragment: "f", SampleEvery: 1, SlowThreshold: -1, Recorder: rec})
	g := newFlightGroup[cdg.Report]()

	leaderT := tr.Start("serve.verify")
	followerT := tr.Start("serve.verify")
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ctx := trace.NewContext(context.Background(), leaderT)
		g.do(ctx, 1, 2, time.Minute, func(context.Context) (cdg.Report, error) {
			<-release
			return cdg.Report{}, nil
		})
	}()
	// The flight is joinable once registered; wait for it, then join.
	for {
		g.mu.Lock()
		_, ok := g.m[1]
		g.mu.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		defer wg.Done()
		ctx := trace.NewContext(context.Background(), followerT)
		g.do(ctx, 1, 2, time.Minute, func(context.Context) (cdg.Report, error) {
			t.Error("follower led its own flight; it should have joined the leader's")
			return cdg.Report{}, nil
		})
	}()
	// Release the compute only once both waiters are on the flight.
	for {
		g.mu.Lock()
		c, ok := g.m[1]
		refs := 0
		if ok {
			refs = c.refs
		}
		g.mu.Unlock()
		if refs == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	leaderID := leaderT.ID()
	if got := followerT.Export().CoalescedWith; got != leaderID {
		t.Fatalf("follower coalesced_with = %q, want leader trace %q", got, leaderID)
	}
	leaderT.Finish(200)
	followerT.Finish(200)
}

// TestTraceDeterministic holds the tracing determinism contract: fresh
// replicas serving the same sequential requests, every trace retained,
// render byte-identical canonical span trees (names, nesting,
// attributes, status and provenance; IDs and timings stripped).
func TestTraceDeterministic(t *testing.T) {
	// A cold verify, the same request again (a cache hit), a second
	// design, and one single-link delta against the first.
	workload := []struct{ path, body string }{
		{"/v1/verify", `{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`},
		{"/v1/verify", `{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`},
		{"/v1/verify", `{"network":{"kind":"torus","sizes":[6,6]},"chain":"PA[X+ Y+] -> PB[X- Y-]"}`},
		{"/v1/verify/delta", `{"base":{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"},"remove_links":[{"at":[2,3],"dir":"X+"}]}`},
	}
	canonRun := func() string {
		rec := trace.NewRecorder(64, 16)
		tr := trace.New(trace.Config{
			Fragment:      "smoke",
			SampleEvery:   1,  // retain every request
			SlowThreshold: -1, // the slow lane would double-record slow runs
			Recorder:      rec,
		})
		srv := NewReplica(Config{Workers: 1, Tracer: tr}, &cdg.VerifyCache{})
		defer srv.Shutdown(context.Background())
		mux := obshttp.Mux(obs.NewRegistry(), srv.Ready)
		srv.Register(mux)
		ts := httptest.NewServer(mux)
		defer ts.Close()
		for i, req := range workload {
			resp, err := ts.Client().Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: status %d", i, resp.StatusCode)
			}
		}
		var b bytes.Buffer
		for _, tj := range trace.Collect(rec.Snapshot()) {
			if err := tj.WriteCanonicalText(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	// The delta request checks out a workspace from the process-global
	// cdg.DefaultDeltaPool: the first run in a process builds it (its
	// trace carries the base verification), later runs reuse it. A
	// warm-up run primes the pool so the two measured runs see the same
	// pool state.
	canonRun()
	a, b := canonRun(), canonRun()
	if a == "" {
		t.Fatal("flight recorder captured no traces with SampleEvery=1")
	}
	if a != b {
		t.Fatalf("canonical span trees differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}
