package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ebda/internal/cdg"
)

// Designs for the cache-hit gate: acyclic EbDa chains and turn lists, and
// cyclic turn lists, on 2D and 3D meshes of the sizes bench/'s verify_hot
// draws from.
var (
	hitAcyclic = []string{
		`{"network":{"kind":"mesh","sizes":[16,16]},"chain":"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"}`,
		`{"network":{"kind":"mesh","sizes":[24,20]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`,
		`{"network":{"kind":"mesh","sizes":[18,14]},"chain":"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]","no_ui_turns":true}`,
		`{"network":{"kind":"mesh","sizes":[8,8,8]},"chain":"PA[X+ Y+ Z+ Z-] -> PB[X- Y- Z2+ Z2-]"}`,
		`{"network":{"kind":"mesh","sizes":[32,16]},"turns":"X+>Y+,X+>Y-,X->Y+,X->Y-"}`,
		`{"network":{"kind":"mesh","sizes":[20,20]},"chain":"PA[X2+ X2- Y2+] -> PB[X1+ Y1-] -> PC[X1- Y2-] -> PD[Y1+]"}`,
		`{"network":{"kind":"mesh","sizes":[12,12,8]},"chain":"PA[X+ X- Y+ Z+] -> PB[Y- Z-]"}`,
		`{"network":{"kind":"mesh","sizes":[28,28]},"chain":"PA[X+ Y+ Y-] -> PB[X- Y2+ Y2-]"}`,
	}
	hitCyclic = []string{
		`{"network":{"kind":"mesh","sizes":[16,16]},"turns":"X+>Y+,Y+>X-,X->Y-,Y->X+"}`,
		`{"network":{"kind":"mesh","sizes":[20,16]},"turns":"X+>Y+,X+>Y-,X->Y+,X->Y-,Y+>X+,Y+>X-,Y->X+,Y->X-"}`,
		`{"network":{"kind":"torus","sizes":[16,16]},"turns":"X+>Y+,X+>Y-,X->Y+,X->Y-"}`,
		`{"network":{"kind":"mesh","sizes":[8,8,8]},"turns":"X+>Y+,Y+>Z+,Z+>X-,X->Y-,Y->Z-,Z->X+"}`,
		`{"network":{"kind":"mesh","sizes":[24,24]},"turns":"X1+>Y1+,Y1+>X1-,X1->Y1-,Y1->X1+,X1+>X2+"}`,
		`{"network":{"kind":"mesh","sizes":[12,12]},"turns":"X+>Y+,Y+>X-,X->Y-,Y->X+,X+>Y-"}`,
		`{"network":{"kind":"mesh","sizes":[32,12]},"turns":"X+>Y-,Y->X-,X->Y+,Y+>X+"}`,
		`{"network":{"kind":"mesh","sizes":[6,6,6]},"turns":"X+>Y+,Y+>X-,X->Y-,Y->X+,Z+>X+"}`,
	}
)

// hitCase is one cache-hit request and the allocation ceiling it is
// pinned at: the count measured with go1.24 on linux/amd64 plus about 8%
// for the net/http and encoding/json internals of other releases. With a
// map-based turn set and fmt-based class parsing and witness formatting
// the four hits made 171, 207, 773 and 1,592 allocations; now 87, 74,
// 377 and 298. The delta and graph hits were pinned later at 91 and 48
// (go1.24, where the first four read 83, 70, 347 and 270).
type hitCase struct {
	name, path, body string
	ceiling          float64
}

func hitCases() []hitCase {
	batch := func(designs []string) string {
		return `{"requests":[` + strings.Join(designs, ",") + `]}`
	}
	return []hitCase{
		{"single-acyclic", "/v1/verify", hitAcyclic[0], 95},
		{"single-cyclic", "/v1/verify", hitCyclic[0], 80},
		{"batch-acyclic", "/v1/batch", batch(hitAcyclic), 410},
		{"batch-cyclic", "/v1/batch", batch(hitCyclic), 325},
		{"delta-acyclic", "/v1/verify/delta",
			`{"base":` + hitAcyclic[0] + `,"remove_links":[{"at":[3,5],"dir":"Y+"}]}`, 98},
		{"graph-cyclic", "/v1/verify/graph", graphBody("liveness", ""), 52},
	}
}

// hitServer is a server on a private cache whose mux is driven in
// process, without a listener, so a measurement sees the handler alone.
func hitServer(tb testing.TB) http.Handler {
	s := newServer(Config{}, &cdg.VerifyCache{})
	mux := http.NewServeMux()
	s.Register(mux)
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return mux
}

// serveHit sends one request through the mux and returns the recorded
// response.
func serveHit(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// warmHit answers c once so every verdict it names is cached, and checks
// that the repeat is answered from the cache with the expected verdicts.
// Delta and graph answers decode into VerifyResponse too: a delta answer
// carries the same verdict fields, and a graph answer has no "acyclic"
// field, so only a cyclic graph verdict (with its cycle) passes.
func warmHit(tb testing.TB, h http.Handler, c hitCase) {
	tb.Helper()
	if rec := serveHit(h, c.path, c.body); rec.Code != http.StatusOK {
		tb.Fatalf("%s: warm-up status %d: %s", c.name, rec.Code, rec.Body)
	}
	rec := serveHit(h, c.path, c.body)
	if rec.Code != http.StatusOK {
		tb.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body)
	}
	var verdicts []VerifyResponse
	if c.path == "/v1/batch" {
		var br BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
			tb.Fatal(err)
		}
		for _, r := range br.Results {
			if r.OK == nil {
				tb.Fatalf("%s: batch item failed: %s", c.name, r.Error)
			}
			verdicts = append(verdicts, *r.OK)
		}
	} else {
		var vr VerifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &vr); err != nil {
			tb.Fatal(err)
		}
		verdicts = append(verdicts, vr)
	}
	wantAcyclic := strings.HasSuffix(c.name, "-acyclic")
	for i, v := range verdicts {
		if v.Provenance != provCache {
			tb.Fatalf("%s[%d]: provenance %q, want %q", c.name, i, v.Provenance, provCache)
		}
		if v.Acyclic != wantAcyclic || (v.Cycle == "") == !wantAcyclic {
			tb.Fatalf("%s[%d]: acyclic=%v cycle=%q, want acyclic=%v", c.name, i, v.Acyclic, v.Cycle, wantAcyclic)
		}
	}
}

// TestVerifyHitAllocs pins the allocations of a whole /v1/verify,
// /v1/batch, /v1/verify/delta and /v1/verify/graph cache hit, body in to encoded response out through the mux:
// decode, design parse, turn extraction, keying, the cache probe, the
// verdict's witness text and the JSON encode.
func TestVerifyHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates")
	}
	h := hitServer(t)
	for _, c := range hitCases() {
		warmHit(t, h, c)
		allocs := testing.AllocsPerRun(100, func() {
			if rec := serveHit(h, c.path, c.body); rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", c.name, rec.Code)
			}
		})
		t.Logf("%s: %.0f allocs per hit", c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("%s: %.0f allocs per hit, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}

// BenchmarkVerifyHit times the same cache hits as TestVerifyHitAllocs.
//
//	go test -run '^$' -bench VerifyHit -benchmem ./internal/serve
func BenchmarkVerifyHit(b *testing.B) {
	h := hitServer(b)
	for _, c := range hitCases() {
		warmHit(b, h, c)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec := serveHit(h, c.path, c.body); rec.Code != http.StatusOK {
					b.Fatalf("%s: status %d", c.name, rec.Code)
				}
			}
		})
	}
}
