package obshttp

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"ebda/internal/obs"
)

func TestHandlerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("ebda_verify_cache_hits_total", "cache hits").Add(5)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "ebda_verify_cache_hits_total 5") {
		t.Fatalf("metrics body missing counter:\n%s", body)
	}
}

func TestHandlerDebugVars(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total", "").Add(2)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	s, err := obs.ParseSnapshot(body)
	if err != nil {
		t.Fatalf("debug/vars not a snapshot: %v\n%s", err, body)
	}
	if s.Counter("c_total") != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestHealthzAlwaysOK(t *testing.T) {
	draining := func() bool { return false }
	srv := httptest.NewServer(Mux(obs.NewRegistry(), draining))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /healthz = %d, want 200 even while not ready", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "ok\n" {
		t.Fatalf("healthz body = %q", body)
	}
}

func TestReadyzFollowsReadiness(t *testing.T) {
	ready := true
	srv := httptest.NewServer(Mux(obs.NewRegistry(), func() bool { return ready }))
	defer srv.Close()

	get := func() int {
		resp, err := srv.Client().Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get(); code != 200 {
		t.Fatalf("ready server: GET /readyz = %d, want 200", code)
	}
	ready = false
	if code := get(); code != 503 {
		t.Fatalf("draining server: GET /readyz = %d, want 503", code)
	}
}

func TestReadyzNilGateAlwaysReady(t *testing.T) {
	srv := httptest.NewServer(Handler(obs.NewRegistry()))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /readyz with nil gate = %d, want 200", resp.StatusCode)
	}
}

func TestServeBindsEphemeralPort(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(addr, ":") || strings.HasSuffix(addr, ":0") {
		t.Fatalf("bound addr = %q", addr)
	}
}

// TestWriteCacheDelta renders a synthetic run delta: only the
// verify-cache series print, followed by the derived hit rate.
func TestWriteCacheDelta(t *testing.T) {
	delta := obs.Snapshot{
		Counters: []obs.CounterVal{
			{Name: "ebda_cdg_verifies_total", Value: 9},
			{Name: "ebda_verify_cache_hits_total", Value: 3},
			{Name: "ebda_verify_cache_misses_total", Value: 1},
		},
		Gauges: []obs.GaugeVal{{Name: "ebda_verify_cache_entries", Value: 1}},
	}
	var b strings.Builder
	if err := WriteCacheDelta(&b, delta); err != nil {
		t.Fatal(err)
	}
	want := "verify cache (this run):\n" +
		"counters:\n" +
		"  ebda_verify_cache_hits_total                     3\n" +
		"  ebda_verify_cache_misses_total                   1\n" +
		"gauges:\n" +
		"  ebda_verify_cache_entries                        1\n" +
		"  hit rate: 75.0% (3/4)\n"
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}

	// No cache traffic: the header alone, no hit-rate line.
	b.Reset()
	if err := WriteCacheDelta(&b, obs.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if b.String() != "verify cache (this run):\n" {
		t.Fatalf("empty delta rendered %q", b.String())
	}
}
