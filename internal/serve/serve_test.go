package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ebda/internal/cdg"
)

// testServer starts an isolated server (private verify cache) on an
// httptest listener and tears both down with the test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg, &cdg.VerifyCache{})
	// Isolate the mode cache too: graph-endpoint provenance assertions
	// must not see verdicts another test cached process-wide.
	s.modes = &cdg.ModeCache{}
	mux := http.NewServeMux()
	s.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestVerifyEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := `{"network":{"kind":"mesh","sizes":[6,6]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`

	status, raw := post(t, ts, "/v1/verify", body)
	if status != 200 {
		t.Fatalf("POST /v1/verify = %d: %s", status, raw)
	}
	var first VerifyResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if !first.Acyclic {
		t.Fatalf("north-last on a mesh must be acyclic: %+v", first)
	}
	if first.Provenance != provComputed {
		t.Fatalf("first verdict provenance = %q, want %q", first.Provenance, provComputed)
	}
	if first.Channels == 0 || first.Edges == 0 || first.Key == "" {
		t.Fatalf("response missing report fields: %+v", first)
	}
	if first.Turns.Deg90 == 0 {
		t.Fatalf("response missing turn counts: %+v", first)
	}

	// The identical request again: memoized, and the verdict fields are
	// byte-identical once provenance (which legitimately differs) is
	// canonicalized.
	status, raw2 := post(t, ts, "/v1/verify", body)
	if status != 200 {
		t.Fatalf("repeat POST = %d: %s", status, raw2)
	}
	var second VerifyResponse
	if err := json.Unmarshal(raw2, &second); err != nil {
		t.Fatal(err)
	}
	if second.Provenance != provCache {
		t.Fatalf("repeat verdict provenance = %q, want %q", second.Provenance, provCache)
	}
	first.Provenance, second.Provenance = "", ""
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Fatalf("repeat verdict differs:\nfirst  %s\nsecond %s", a, b)
	}
}

func TestVerifyCyclicDesign(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := `{"network":{"kind":"mesh","sizes":[5,5]},"turns":"X+>Y+,X+>Y-,X->Y+,X->Y-,Y+>X+,Y+>X-,Y->X+,Y->X-"}`
	status, raw := post(t, ts, "/v1/verify", body)
	if status != 200 {
		t.Fatalf("POST = %d: %s", status, raw)
	}
	var resp VerifyResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Acyclic {
		t.Fatal("the unrestricted turn relation must be cyclic on a mesh")
	}
	if resp.Cycle == "" {
		t.Fatal("cyclic verdict carries no example cycle")
	}
}

func TestVerifyRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"empty", ``},
		{"not json", `not json`},
		{"unknown field", `{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X+]","nope":1}`},
		{"trailing data", `{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X+ X- Y-] -> PB[Y+]"} {}`},
		{"missing network kind", `{"network":{"sizes":[4,4]},"chain":"PA[X+]"}`},
		{"bad kind", `{"network":{"kind":"ring","sizes":[4,4]},"chain":"PA[X+]"}`},
		{"no sizes", `{"network":{"kind":"mesh","sizes":[]},"chain":"PA[X+]"}`},
		{"size too small", `{"network":{"kind":"mesh","sizes":[1,4]},"chain":"PA[X+]"}`},
		{"size too large", `{"network":{"kind":"mesh","sizes":[65,4]},"chain":"PA[X+]"}`},
		{"too many dims", `{"network":{"kind":"mesh","sizes":[2,2,2,2,2]},"chain":"PA[X+]"}`},
		{"node cap", `{"network":{"kind":"mesh","sizes":[64,64,2]},"chain":"PA[X+]"}`},
		{"no design", `{"network":{"kind":"mesh","sizes":[4,4]}}`},
		{"both designs", `{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X+]","turns":"X+>Y+"}`},
		{"bad chain", `{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[Q*]"}`},
		{"bad turns", `{"network":{"kind":"mesh","sizes":[4,4]},"turns":"garbage"}`},
		// Class names with bytes after the VC, or a sign before it, once
		// read as X1+, Y2- and T1+.
		{"trailing class bytes", `{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X1x+ Y+]"}`},
		{"trailing turn bytes", `{"network":{"kind":"mesh","sizes":[4,4]},"turns":"X+>Y2abc-"}`},
		{"signed D number", `{"network":{"kind":"mesh","sizes":[4,4]},"turns":"D+3+>X+"}`},
	}
	for _, tc := range cases {
		status, raw := post(t, ts, "/v1/verify", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, status, raw)
			continue
		}
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not the JSON envelope", tc.name, raw)
		}
	}
}

// foreignDimsBody is a 4 KiB verify request whose chain names classes
// D91+, D92+, ... in dimensions a 4x4 mesh lacks. Such classes once
// escaped the VC budget, so the body cost over 100 ms of I-turn
// extraction on every request, cache hits included.
func foreignDimsBody() string {
	var chain strings.Builder
	chain.WriteString("PA[")
	for d := 91; chain.Len() < maxSpecLen-16; d++ {
		fmt.Fprintf(&chain, "D%d+ ", d)
	}
	chain.WriteString("X+]")
	return `{"network":{"kind":"mesh","sizes":[4,4]},"chain":"` + chain.String() + `"}`
}

// TestVerifyRejectsForeignDimensions pins that a design naming a
// dimension the network lacks, as a class or as a parity dimension, is a
// 400 decided before any turn is extracted: the 4 KiB foreignDimsBody
// answers in well under 5 ms.
func TestVerifyRejectsForeignDimensions(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, body := range []string{
		`{"network":{"kind":"mesh","sizes":[4,4]},"turns":"X+>Z+"}`,
		`{"network":{"kind":"torus","sizes":[4,4,4]},"chain":"PA[X+ D3-] -> PB[X-]"}`,
		`{"network":{"kind":"mesh","sizes":[8]},"chain":"PA[Xe+] -> PB[Xo+]"}`,
	} {
		if status, raw := post(t, ts, "/v1/verify", body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", body, status, raw)
		}
	}
	body := foreignDimsBody()
	best := time.Hour
	for i := 0; i < 3; i++ {
		start := time.Now()
		status, raw := post(t, ts, "/v1/verify", body)
		best = min(best, time.Since(start))
		if status != http.StatusBadRequest {
			t.Fatalf("%d-byte foreign-dimension chain: status %d, want 400 (%s)", len(body), status, raw)
		}
	}
	t.Logf("%d-byte foreign-dimension chain rejected in %v", len(body), best)
	if !raceEnabled && best > 5*time.Millisecond {
		t.Errorf("%d-byte foreign-dimension chain took %v to reject, want under 5ms", len(body), best)
	}
}

func TestEndpointsRejectGET(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, path := range []string{"/v1/verify", "/v1/verify/delta", "/v1/design", "/v1/batch"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

func TestBatchMixedResults(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := `{"requests":[
		{"network":{"kind":"mesh","sizes":[5,5]},"chain":"PA[X+ X- Y-] -> PB[Y+]"},
		{"network":{"kind":"mesh","sizes":[1,5]},"chain":"PA[X+]"},
		{"network":{"kind":"mesh","sizes":[5,5]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}
	]}`
	status, raw := post(t, ts, "/v1/batch", body)
	if status != 200 {
		t.Fatalf("POST /v1/batch = %d: %s", status, raw)
	}
	var resp BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].OK == nil || !resp.Results[0].OK.Acyclic {
		t.Fatalf("item 0 should verify acyclic: %+v", resp.Results[0])
	}
	if resp.Results[1].OK != nil || resp.Results[1].Status != http.StatusBadRequest {
		t.Fatalf("item 1 should fail validation with 400: %+v", resp.Results[1])
	}
	// Item 2 repeats item 0 inside one batch: served from cache.
	if resp.Results[2].OK == nil || resp.Results[2].OK.Provenance != provCache {
		t.Fatalf("item 2 should be a cache hit: %+v", resp.Results[2])
	}
	if resp.Results[2].OK.Key != resp.Results[0].OK.Key {
		t.Fatal("identical items carry different verify keys")
	}
}

func TestBatchLimits(t *testing.T) {
	_, ts := testServer(t, Config{})
	if status, _ := post(t, ts, "/v1/batch", `{"requests":[]}`); status != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", status)
	}
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i <= maxBatch; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`)
	}
	sb.WriteString(`]}`)
	if status, _ := post(t, ts, "/v1/batch", sb.String()); status != http.StatusBadRequest {
		t.Fatalf("oversized batch = %d, want 400", status)
	}
}

func TestDesignEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	status, raw := post(t, ts, "/v1/design", `{"vcs":[1,2],"max":4}`)
	if status != 200 {
		t.Fatalf("POST /v1/design = %d: %s", status, raw)
	}
	var resp DesignResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Derived == 0 || len(resp.Options) == 0 {
		t.Fatalf("design family is empty: %+v", resp)
	}
	if len(resp.Options) > 4 {
		t.Fatalf("max=4 not honored: %d options", len(resp.Options))
	}
	for i, opt := range resp.Options {
		if !opt.Acyclic {
			t.Errorf("derived option %d (%s) is cyclic — Algorithm 2 output must be deadlock-free", i, opt.Chain)
		}
		if opt.Chain == "" || opt.Channels == 0 {
			t.Errorf("option %d missing fields: %+v", i, opt)
		}
	}
}

func TestDesignRejectsBadBudgets(t *testing.T) {
	_, ts := testServer(t, Config{})
	for name, body := range map[string]string{
		"no vcs":        `{}`,
		"zero vc":       `{"vcs":[0,1]}`,
		"vc over cap":   `{"vcs":[9]}`,
		"too many dims": `{"vcs":[1,1,1,1,1]}`,
		"torus net":     `{"vcs":[1,1],"network":{"kind":"torus","sizes":[5,5]}}`,
		"dim mismatch":  `{"vcs":[1,1],"network":{"kind":"mesh","sizes":[5,5,5]}}`,
	} {
		if status, raw := post(t, ts, "/v1/design", body); status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", name, status, raw)
		}
	}
}

func TestQueueFullRejects429(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1, Timeout: 5 * time.Second})
	// Wedge the single worker, then fill the queue's one slot, so the
	// next admission must shed.
	block := make(chan struct{})
	running := make(chan struct{})
	if err := s.submit(func() { close(running); <-block }); err != nil {
		t.Fatal(err)
	}
	<-running
	if err := s.submit(func() {}); err != nil {
		t.Fatalf("queue slot should admit: %v", err)
	}
	defer close(block)

	status, raw := post(t, ts, "/v1/verify",
		`{"network":{"kind":"mesh","sizes":[7,7]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated server = %d, want 429 (%s)", status, raw)
	}
}

func TestDrainingRejects503ButServesCacheHits(t *testing.T) {
	s, ts := testServer(t, Config{})
	warm := `{"network":{"kind":"mesh","sizes":[6,6]},"chain":"PA[X- Y-] -> PB[X+ Y+]"}`
	if status, raw := post(t, ts, "/v1/verify", warm); status != 200 {
		t.Fatalf("warmup = %d: %s", status, raw)
	}

	if !s.Ready() {
		t.Fatal("fresh server not ready")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if s.Ready() {
		t.Fatal("draining server reports ready")
	}

	// Fresh work is shed...
	status, raw := post(t, ts, "/v1/verify",
		`{"network":{"kind":"mesh","sizes":[9,9]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("fresh request while draining = %d, want 503 (%s)", status, raw)
	}
	// ...but a memoized verdict costs nothing and is still answered.
	status, raw = post(t, ts, "/v1/verify", warm)
	if status != 200 {
		t.Fatalf("cached request while draining = %d, want 200 (%s)", status, raw)
	}
	var resp VerifyResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Provenance != provCache {
		t.Fatalf("draining verdict provenance = %q, want %q", resp.Provenance, provCache)
	}

	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestNetworkCacheInterns(t *testing.T) {
	nc := newNetworkCache()
	a := nc.get("mesh", []int{6, 6})
	b := nc.get("mesh", []int{6, 6})
	if a != b {
		t.Fatal("same shape resolved to distinct networks; every repeat request rebuilds its topology")
	}
	if c := nc.get("torus", []int{6, 6}); c == a {
		t.Fatal("torus interned onto the mesh entry")
	}
	if d := nc.get("mesh", []int{6, 8}); d == a {
		t.Fatal("distinct sizes interned together")
	}
}
