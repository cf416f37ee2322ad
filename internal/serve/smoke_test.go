package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/obs"
	"ebda/internal/obs/obshttp"
	"ebda/internal/obs/trace"
	"ebda/internal/topology"
)

// The serving smoke gate: a loopback server, with the same mux and
// introspection set as ebda-serve, driven by a seeded mix of hot, cold,
// batch, design, invalid and single-link delta traffic.

// smokeHot is the repeated-design set: small shapes the verify cache
// memoizes after first contact.
var smokeHot = []string{
	`{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`,
	`{"network":{"kind":"mesh","sizes":[6,6]},"chain":"PA[X-] -> PB[X+ Y+ Y-]"}`,
	`{"network":{"kind":"mesh","sizes":[5,5]},"chain":"PA[X- Y-] -> PB[X+ Y+]"}`,
	`{"network":{"kind":"torus","sizes":[6,6]},"chain":"PA[X+ Y+] -> PB[X- Y-]"}`,
	`{"network":{"kind":"mesh","sizes":[4,4]},"turns":"X+>Y+,X->Y+,X+>Y-,X->Y-"}`,
}

// smokeInvalid are rejected by decode or validation; each must get a 4xx.
var smokeInvalid = []string{
	`{"network":{"kind":"ring","sizes":[8,8]},"chain":"PA[X+]"}`,
	`{"network":{"kind":"mesh","sizes":[1,8]},"chain":"PA[X+]"}`,
	`{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+]","turns":"X+>Y+"}`,
	`{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[Q*]"}`,
	`{"network":{"kind":"mesh","sizes":[8,8]}}`,
	`not json at all`,
}

// smokeColdChains parameterize the fresh-shape requests.
var smokeColdChains = []string{
	"PA[X+ X- Y-] -> PB[Y+]",
	"PA[X-] -> PB[X+ Y+ Y-]",
	"PA[X- Y-] -> PB[X+ Y+]",
	"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]",
}

// smokeDeltaBase is the design the delta requests perturb: smokeHot[0].
const smokeDeltaBase = `{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`

// smokeLink names one removed link of the delta base.
type smokeLink struct {
	x, y int
	dir  string
}

func (l smokeLink) body(baseKey string) string {
	return fmt.Sprintf(`{"base":%s,"base_key":"%s","remove_links":[{"at":[%d,%d],"dir":"%s"}]}`,
		smokeDeltaBase, baseKey, l.x, l.y, l.dir)
}

// smokeReq is one pre-generated request of the mix.
type smokeReq struct {
	path    string
	body    string
	invalid bool       // must be rejected with a 4xx
	link    *smokeLink // set on delta requests
}

// smokeMix builds the deterministic request mix for a seed: about 45%
// hot, a quarter cold, 10% single-link deltas against the pinned base,
// and 5% each of batches, design families and invalid bodies.
func smokeMix(seed int64, n int, baseKey string) []smokeReq {
	rng := rand.New(rand.NewSource(seed))
	cold := func() string {
		// Sizes in [2,32]: fresh-ish shapes that compute.
		a, b := 2+rng.Intn(31), 2+rng.Intn(31)
		kind := "mesh"
		if rng.Intn(4) == 0 {
			kind = "torus"
		}
		chain := smokeColdChains[rng.Intn(len(smokeColdChains))]
		return fmt.Sprintf(`{"network":{"kind":"%s","sizes":[%d,%d]},"chain":"%s"}`, kind, a, b, chain)
	}
	reqs := make([]smokeReq, 0, n)
	for i := 0; i < n; i++ {
		switch p := rng.Intn(100); {
		case p < 45:
			reqs = append(reqs, smokeReq{path: "/v1/verify", body: smokeHot[rng.Intn(len(smokeHot))]})
		case p < 70:
			reqs = append(reqs, smokeReq{path: "/v1/verify", body: cold()})
		case p < 80:
			// The source node stays off the mesh boundary so every
			// direction names a real link.
			l := smokeLink{x: 1 + rng.Intn(6), y: 1 + rng.Intn(6), dir: []string{"X+", "X-", "Y+", "Y-"}[rng.Intn(4)]}
			reqs = append(reqs, smokeReq{path: "/v1/verify/delta", body: l.body(baseKey), link: &l})
		case p < 85:
			items := make([]string, 2+rng.Intn(3))
			for j := range items {
				if rng.Intn(2) == 0 {
					items[j] = smokeHot[rng.Intn(len(smokeHot))]
				} else {
					items[j] = cold()
				}
			}
			reqs = append(reqs, smokeReq{path: "/v1/batch", body: `{"requests":[` + strings.Join(items, ",") + `]}`})
		case p < 90:
			vcs := []string{`[1,1]`, `[1,2]`, `[2,1]`}[rng.Intn(3)]
			reqs = append(reqs, smokeReq{path: "/v1/design", body: `{"vcs":` + vcs + `,"max":4}`})
		default:
			reqs = append(reqs, smokeReq{path: "/v1/verify", body: smokeInvalid[rng.Intn(len(smokeInvalid))], invalid: true})
		}
	}
	return reqs
}

// smokeResult is one completed request with the provenance of every
// verdict its response carried.
type smokeResult struct {
	status  int
	body    []byte
	prov    map[string]int
	item5xx int
}

func smokeDo(client *http.Client, baseURL string, r smokeReq) smokeResult {
	resp, err := client.Post(baseURL+r.path, "application/json", strings.NewReader(r.body))
	if err != nil {
		// A transport failure breaks the connection contract: count it
		// as a 5xx.
		return smokeResult{status: 599}
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := smokeResult{status: resp.StatusCode, body: body, prov: map[string]int{}}
	if resp.StatusCode != http.StatusOK {
		return res
	}
	switch r.path {
	case "/v1/verify":
		var v VerifyResponse
		if json.Unmarshal(body, &v) == nil {
			res.prov[v.Provenance]++
		}
	case "/v1/verify/delta":
		var d DeltaResponse
		if json.Unmarshal(body, &d) == nil {
			res.prov[d.Provenance]++
		}
	case "/v1/batch":
		var b BatchResponse
		if json.Unmarshal(body, &b) == nil {
			for _, item := range b.Results {
				if item.OK != nil {
					res.prov[item.OK.Provenance]++
				} else if item.Status >= 500 {
					res.item5xx++
				}
			}
		}
	case "/v1/design":
		var d DesignResponse
		if json.Unmarshal(body, &d) == nil {
			for _, opt := range d.Options {
				res.prov[opt.Provenance]++
			}
		}
	}
	return res
}

// canonicalVerify strips provenance, the one field two answers to the
// same request may legitimately differ in.
func canonicalVerify(t *testing.T, raw []byte) []byte {
	t.Helper()
	var v VerifyResponse
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("verify response %s: %v", raw, err)
	}
	v.Provenance = ""
	out, _ := json.Marshal(v)
	return out
}

// TestServeSmoke is the serving gate: zero 5xx (top level and per batch
// item), every invalid body answered 4xx, repeated identical requests
// byte-identical apart from provenance, at least one coalesced and one
// incrementally computed verdict, every delta verdict byte-identical to
// a from-scratch verify of the derived faulty network, a flight recorder
// whose slowest trace accounts for its latency, and the /readyz drain
// contract.
func TestServeSmoke(t *testing.T) {
	rec := trace.NewRecorder(0, 0)
	s := newServer(Config{
		Tracer: trace.New(trace.Config{Fragment: "local", SampleEvery: 16, Recorder: rec}),
	}, &cdg.VerifyCache{})
	s.modes = &cdg.ModeCache{}
	api := obshttp.Mux(obs.Default, s.Ready)
	s.Register(api)
	mux := http.NewServeMux()
	mux.Handle("/debug/traces", obshttp.TracesHandler(rec))
	mux.Handle("/", api)
	hts := httptest.NewServer(mux)
	t.Cleanup(func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	client := &http.Client{Timeout: 60 * time.Second}

	// Pin the delta base's cache key so the mix's deltas can assert it.
	status, raw := post(t, hts, "/v1/verify", smokeDeltaBase)
	if status != http.StatusOK {
		t.Fatalf("base verify = %d: %s", status, raw)
	}
	var base VerifyResponse
	if err := json.Unmarshal(raw, &base); err != nil || base.Key == "" {
		t.Fatalf("base verify carries no key: %s", raw)
	}

	// The seeded mix, spread over 8 client workers.
	reqs := smokeMix(1, 200, base.Key)
	results := make([]smokeResult, len(reqs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = smokeDo(client, hts.URL, reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()

	// Four fixed single-link deltas, boundary links included, join the
	// mix's deltas in the equivalence check.
	for _, l := range []smokeLink{{2, 3, "X+"}, {5, 1, "Y-"}, {0, 0, "X+"}, {6, 6, "Y+"}} {
		r := smokeReq{path: "/v1/verify/delta", body: l.body(base.Key), link: &l}
		reqs = append(reqs, r)
		results = append(results, smokeDo(client, hts.URL, r))
	}

	prov := map[string]int{}
	deltas := 0
	for i, res := range results {
		r := reqs[i]
		switch {
		case res.status >= 500:
			t.Errorf("%s %s: status %d", r.path, r.body, res.status)
		case r.invalid && res.status < 400:
			t.Errorf("invalid body %s: status %d, want 4xx", r.body, res.status)
		case !r.invalid && res.status != http.StatusOK:
			t.Errorf("%s %s: status %d: %s", r.path, r.body, res.status, res.body)
		}
		if res.item5xx > 0 {
			t.Errorf("batch %s: %d items answered 5xx", r.body, res.item5xx)
		}
		for p, n := range res.prov {
			prov[p] += n
		}
		if r.link != nil && res.status == http.StatusOK {
			deltas++
			checkDeltaVerdict(t, *r.link, res.body)
		}
	}
	t.Logf("%d requests, verdict provenance %v, %d delta requests", len(results), prov, deltas)
	if deltas == 0 {
		t.Error("the mix carried no delta requests")
	}
	if prov[provDelta] < 1 {
		t.Errorf("no delta verdict was computed incrementally (provenance tallies %v)", prov)
	}

	// A repeated identical request is byte-identical apart from
	// provenance.
	_, first := post(t, hts, "/v1/verify", smokeHot[0])
	_, second := post(t, hts, "/v1/verify", smokeHot[0])
	if a, b := canonicalVerify(t, first), canonicalVerify(t, second); !bytes.Equal(a, b) {
		t.Errorf("repeated identical requests differ:\nfirst  %s\nsecond %s", a, b)
	}

	checkCoalescedOverHTTP(t, s, hts)
	checkTraceEvidence(t, client, hts.URL)

	// The drain contract: ready while serving, 503 once Shutdown begins.
	readyz := func() int {
		resp, err := client.Get(hts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", code)
	}
}

// checkDeltaVerdict compares a delta response byte for byte, over the
// verdict fields, with a from-scratch verify of the base design on the
// network without the removed link.
func checkDeltaVerdict(t *testing.T, l smokeLink, raw []byte) {
	t.Helper()
	var got DeltaResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Errorf("delta %+v: %v: %s", l, err, raw)
		return
	}
	net := topology.NewMesh(8, 8)
	chain := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]")
	ts := chain.Turns(core.DefaultTurnOptions)
	vcs := cdg.VCConfigFor(net.Dims(), chain.Channels())
	dim := channel.Dim(l.dir[0] - 'X')
	sign := channel.Plus
	if l.dir[1] == '-' {
		sign = channel.Minus
	}
	link, ok := net.FindLink(net.ID(topology.Coord{l.x, l.y}), dim, sign)
	if !ok {
		t.Errorf("delta %+v: no such link on the 8x8 mesh", l)
		return
	}
	want := cdg.VerifyTurnSet(net.WithoutLinks([]topology.Link{link}), vcs, ts)
	exp := DeltaResponse{Network: want.Network, Channels: want.Channels, Edges: want.Edges, Acyclic: want.Acyclic}
	if !want.Acyclic {
		exp.Cycle = cdg.FormatCycle(want.Cycle)
	}
	// Provenance and keys are transport metadata, not verdict.
	got.Provenance, got.Key, got.BaseKey = "", "", ""
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(exp)
	if !bytes.Equal(a, b) {
		t.Errorf("delta %+v: %s, from scratch %s", l, a, b)
	}
}

// checkCoalescedOverHTTP holds a flight open for a fresh design, sends
// the same design over HTTP, and requires the response to join that
// flight: provenance "coalesced" and the verdict the leader computes.
func checkCoalescedOverHTTP(t *testing.T, s *Server, hts *httptest.Server) {
	t.Helper()
	const body = `{"network":{"kind":"mesh","sizes":[40,40]},"chain":"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"}`
	req, err := DecodeVerifyRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := req.build(s.nets)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.flight.do(context.Background(), b.q.Key, b.q.Check, time.Minute, s.submit,
			func(ctx context.Context) (cdg.Report, error) {
				<-release
				return s.cache.Verify(ctx, b.q)
			})
		leaderDone <- err
	}()
	// Send the request once the leader's flight is registered, and
	// release the leader once the request has joined it.
	waitRefs := func(want int) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			s.flight.mu.Lock()
			refs := 0
			if c, ok := s.flight.m[b.q.Key]; ok {
				refs = c.refs
			}
			s.flight.mu.Unlock()
			if refs == want {
				return
			}
			if time.Now().After(deadline) {
				close(release)
				t.Fatalf("flight for the held design has %d waiters, want %d", refs, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitRefs(1)
	type answer struct {
		status int
		raw    []byte
	}
	got := make(chan answer, 1)
	go func() {
		resp, err := hts.Client().Post(hts.URL+"/v1/verify", "application/json", strings.NewReader(body))
		if err != nil {
			got <- answer{599, []byte(err.Error())}
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- answer{resp.StatusCode, raw}
	}()
	waitRefs(2)
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("held leader: %v", err)
	}
	a := <-got
	if a.status != http.StatusOK {
		t.Fatalf("coalesced request = %d: %s", a.status, a.raw)
	}
	var v VerifyResponse
	if err := json.Unmarshal(a.raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.Provenance != provCoalesced {
		t.Fatalf("request sent into a held flight has provenance %q, want %q", v.Provenance, provCoalesced)
	}
	want := cdg.VerifyTurnSet(b.net, b.vcs, b.ts)
	if v.Channels != want.Channels || v.Edges != want.Edges || v.Acyclic != want.Acyclic {
		t.Fatalf("coalesced verdict %+v, from scratch %v", v, want)
	}
}

// checkTraceEvidence pulls the flight recorder at /debug/traces and
// checks the slowest captured trace against its own report: the summed
// duration of its top-level spans must sit within max(10ms, 50%) of the
// trace's duration. A trace reporting latency its spans cannot account
// for means the recorder dropped or mislinked part of the request tree.
func checkTraceEvidence(t *testing.T, client *http.Client, baseURL string) {
	t.Helper()
	resp, err := client.Get(baseURL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces = %d: %s", resp.StatusCode, raw)
	}
	var page struct {
		Traces []trace.TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(raw, &page); err != nil {
		t.Fatalf("/debug/traces: %v", err)
	}
	if len(page.Traces) == 0 {
		t.Fatal("the flight recorder captured no traces")
	}
	slowest := page.Traces[0]
	for _, tj := range page.Traces[1:] {
		if tj.DurationMs > slowest.DurationMs {
			slowest = tj
		}
	}
	// Top-level spans: the root, plus any span whose parent fragment was
	// overwritten out of the ring. Children nest inside them, so summing
	// only the top level never double-counts.
	present := make(map[string]bool, len(slowest.Spans))
	for _, sp := range slowest.Spans {
		present[sp.ID] = true
	}
	var sumMS float64
	for _, sp := range slowest.Spans {
		if sp.Parent == "" || !present[sp.Parent] {
			sumMS += float64(sp.DurMicros) / 1e3
		}
	}
	tol := max(10.0, slowest.DurationMs/2)
	if diff := sumMS - slowest.DurationMs; diff > tol || diff < -tol {
		t.Fatalf("slowest trace %s: span sum %.2fms vs reported %.2fms (tolerance %.2fms)",
			slowest.ID, sumMS, slowest.DurationMs, tol)
	}
}
