package serve

import (
	"net/http"
	"testing"

	"ebda/internal/obs"
)

// TestEndpointCounters pins what each /v1 POST endpoint adds to its
// ebda_serve_requests_total series and to the bad_request rejections.
// The series are looked up by name in the process-wide registry, and
// each case reads them as a before/after delta, so the test must not run
// in parallel with anything else that serves requests.
func TestEndpointCounters(t *testing.T) {
	_, ts := testServer(t, Config{})
	verifyBody := `{"network":{"kind":"mesh","sizes":[5,5]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`
	endpoints := []struct{ path, endpoint, valid string }{
		{"/v1/verify", "verify", verifyBody},
		{"/v1/verify/delta", "delta", `{"base":` + verifyBody + `,"remove_links":[{"at":[1,1],"dir":"X+"}]}`},
		{"/v1/verify/graph", "graph", graphBody("liveness", "")},
		{"/v1/design", "design", `{"vcs":[1,2],"max":2}`},
		{"/v1/batch", "batch", `{"requests":[` + verifyBody + `]}`},
	}
	bad := obs.Default.Counter(obs.Label("ebda_serve_rejected_total", "reason", "bad_request"), "")
	type reading struct{ requests, bad uint64 }
	type counterCase struct {
		name, method, body string
		status             int
		want               reading
	}
	for _, e := range endpoints {
		requests := obs.Default.Counter(obs.Label("ebda_serve_requests_total", "endpoint", e.endpoint), "")
		cases := []counterCase{
			{"valid", http.MethodPost, e.valid, http.StatusOK, reading{1, 0}},
			{"malformed", http.MethodPost, `{"nope`, http.StatusBadRequest, reading{1, 1}},
			{"GET", http.MethodGet, "", http.StatusMethodNotAllowed, reading{1, 0}},
		}
		if e.endpoint == "batch" {
			cases = append(cases, counterCase{"one bad item", http.MethodPost,
				`{"requests":[` + verifyBody + `,{"network":{"kind":"mesh","sizes":[1,5]},"chain":"PA[X+]"}]}`,
				http.StatusOK, reading{1, 0}})
		}
		for _, c := range cases {
			before := reading{requests.Value(), bad.Value()}
			var status int
			if c.method == http.MethodGet {
				resp, err := ts.Client().Get(ts.URL + e.path)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				status = resp.StatusCode
			} else {
				status, _ = post(t, ts, e.path, c.body)
			}
			got := reading{requests.Value() - before.requests, bad.Value() - before.bad}
			if status != c.status {
				t.Errorf("%s %s: status %d, want %d", e.path, c.name, status, c.status)
			}
			if got != c.want {
				t.Errorf("%s %s: requests +%d, bad_request +%d; want +%d, +%d",
					e.path, c.name, got.requests, got.bad, c.want.requests, c.want.bad)
			}
		}
	}
}
