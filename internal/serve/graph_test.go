package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/graphio"
	"ebda/internal/topology"
)

// escapeOKSpec is the canonical Duato exerciser from the graphio
// goldens: a cyclic adaptive core 2<->3 with escape channel 4 draining
// to output 5.
const escapeOKSpec = `{"channels":6,"inputs":[0,1],"outputs":[5],"edges":[[0,2],[1,3],[2,3],[2,4],[3,2],[3,4],[4,5]]}`

const escapeOKText = "6\n0 1\n5\n0 2\n1 3\n2 3 4\n3 2 4\n4 5\n"

func graphBody(mode, extra string) string {
	return `{"graph":` + escapeOKSpec + `,"mode":"` + mode + `"` + extra + `}`
}

func TestGraphEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := graphBody("liveness", "")

	status, raw := post(t, ts, "/v1/verify/graph", body)
	if status != 200 {
		t.Fatalf("POST /v1/verify/graph = %d: %s", status, raw)
	}
	var first GraphVerifyResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if first.OK || first.Reason != cdg.ReasonCycle {
		t.Fatalf("cyclic region accepted: %+v", first)
	}
	if first.Provenance != provComputed {
		t.Fatalf("first verdict provenance = %q, want %q", first.Provenance, provComputed)
	}
	if first.Channels != 6 || first.Edges != 7 || first.Key == "" || first.Cycle == "" || first.Path == "" {
		t.Fatalf("response missing fields: %+v", first)
	}

	// The identical request again: answered from the mode cache, with
	// verdict fields byte-identical once provenance is canonicalized.
	status, raw2 := post(t, ts, "/v1/verify/graph", body)
	if status != 200 {
		t.Fatalf("repeat POST = %d: %s", status, raw2)
	}
	var second GraphVerifyResponse
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

// TestGraphTextAndJSONAgree pins that the constellation text form and
// the structured form of the same graph share the verdict, the cache
// key, and therefore the cache entry.
func TestGraphTextAndJSONAgree(t *testing.T) {
	_, ts := testServer(t, Config{})
	textBody, _ := json.Marshal(GraphVerifyRequest{CDG: escapeOKText, Mode: "escape", Escape: []int{4}})
	status, raw := post(t, ts, "/v1/verify/graph", string(textBody))
	if status != 200 {
		t.Fatalf("text form = %d: %s", status, raw)
	}
	var tr GraphVerifyResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.OK || tr.Provenance != provComputed {
		t.Fatalf("escape verdict: %+v", tr)
	}

	status, raw = post(t, ts, "/v1/verify/graph", graphBody("escape", `,"escape":[4]`))
	if status != 200 {
		t.Fatalf("structured form = %d: %s", status, raw)
	}
	var jr GraphVerifyResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Provenance != provCache {
		t.Fatalf("structured form missed the cache: %+v", jr)
	}
	if jr.Key != tr.Key || jr.OK != tr.OK {
		t.Fatalf("encodings disagree:\ntext %+v\njson %+v", tr, jr)
	}
}

func TestGraphAllModes(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		body   string
		ok     bool
		reason string
	}{
		{graphBody("loop", ""), false, cdg.ReasonCycle},
		{graphBody("liveness", ""), false, cdg.ReasonCycle},
		{graphBody("escape", `,"escape":[4]`), true, ""},
		{graphBody("subrel", ""), true, ""},
	}
	keys := make(map[string]string)
	for _, tc := range cases {
		status, raw := post(t, ts, "/v1/verify/graph", tc.body)
		if status != 200 {
			t.Fatalf("%s = %d: %s", tc.body, status, raw)
		}
		var resp GraphVerifyResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.OK != tc.ok || resp.Reason != tc.reason {
			t.Fatalf("%s: %+v", tc.body, resp)
		}
		if prev, dup := keys[resp.Key]; dup {
			t.Fatalf("mode %s shares cache key %s with mode %s", resp.Mode, resp.Key, prev)
		}
		keys[resp.Key] = resp.Mode
		if resp.Mode == "subrel" && resp.SubrelationEdges == 0 {
			t.Fatalf("subrel verdict without subrelation: %+v", resp)
		}
	}
}

// graphBadRequests are bodies /v1/verify/graph must answer with 400. The
// last rows are the strictness the single-pass decoder adds over
// encoding/json, which rewrote [[0]] as the self-loop [0,0] and [[0,1,2]]
// as [0,1].
var graphBadRequests = []struct {
	name string
	body string
}{
	{"unknown field", `{"graph":` + escapeOKSpec + `,"mode":"loop","frob":1}`},
	{"both encodings", `{"graph":` + escapeOKSpec + `,"cdg":"1\n\n\n","mode":"loop"}`},
	{"no graph", `{"mode":"loop"}`},
	{"bad mode", `{"graph":` + escapeOKSpec + `,"mode":"bogus"}`},
	{"escape without set", graphBody("escape", "")},
	{"escape out of range", graphBody("escape", `,"escape":[99]`)},
	{"channels over limit", `{"graph":{"channels":5000,"inputs":[],"outputs":[],"edges":[]},"mode":"loop"}`},
	{"cdg parse error", `{"cdg":"2\n9\n\n","mode":"loop"}`},
	{"edge out of range", `{"graph":{"channels":2,"inputs":[],"outputs":[],"edges":[[0,7]]},"mode":"loop"}`},
	{"trailing garbage", graphBody("loop", "") + `{}`},
	{"edge of one id", `{"graph":{"channels":2,"inputs":[],"outputs":[],"edges":[[0]]},"mode":"loop"}`},
	{"edge of three ids", `{"graph":{"channels":3,"inputs":[],"outputs":[],"edges":[[0,1,2]]},"mode":"loop"}`},
	{"null id", `{"graph":{"channels":2,"inputs":[null],"outputs":[],"edges":[]},"mode":"loop"}`},
	{"repeated key", `{"graph":{"channels":2},"graph":{"edges":[[0,1]]},"mode":"loop"}`},
	{"case-folded key", `{"graph":` + escapeOKSpec + `,"MODE":"loop"}`},
	{"trailing bracket", graphBody("loop", "") + `}`},
}

func TestGraphBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, tc := range graphBadRequests {
		status, raw := post(t, ts, "/v1/verify/graph", tc.body)
		if status != 400 {
			t.Fatalf("%s: status %d: %s", tc.name, status, raw)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/verify/graph")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET = %d, want 405", resp.StatusCode)
	}
}

// TestGraphDraining pins that the graph pipeline shares the admission
// machinery: a draining server sheds graph requests with 503.
func TestGraphDraining(t *testing.T) {
	s, ts := testServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	status, raw := post(t, ts, "/v1/verify/graph", graphBody("loop", ""))
	if status != 503 {
		t.Fatalf("draining server answered %d: %s", status, raw)
	}
	if !strings.Contains(string(raw), "draining") {
		t.Fatalf("error body: %s", raw)
	}
}

// goldenGraphBody wraps a testdata/graphio golden in a request: .json
// goldens as the structured graph, .txt goldens as the cdg string.
func goldenGraphBody(t testing.TB, name, mode string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("../../testdata/graphio", name))
	if err != nil {
		t.Fatal(err)
	}
	escape := `,"escape":[0]`
	if strings.HasSuffix(name, ".json") {
		return []byte(`{"graph":` + strings.TrimSpace(string(data)) + `,"mode":"` + mode + `"` + escape + `}`)
	}
	b, err := json.Marshal(GraphVerifyRequest{CDG: string(data), Mode: mode, Escape: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// benchDragonfly has 732 channels and 2,100 edges with 2 VCs, the size
// of an average graph_modes request.
var benchDragonfly = topology.Dragonfly{Groups: 12, Routers: 5, Terminals: 1}

// dragonflyGraphBody renders a dragonfly's 2-VC CDG as a request the way
// clients send it, senders ascending: as the structured graph or as the
// text form.
func dragonflyGraphBody(t testing.TB, df topology.Dragonfly, text bool, mode string) []byte {
	t.Helper()
	cg, err := df.ChannelGraph(2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graphio.New(cg.Channels, cg.Inputs, cg.Outputs, cg.Edges)
	if err != nil {
		t.Fatal(err)
	}
	escape := []int{df.Local(0, 0, 1, 1, 2)}
	req := GraphVerifyRequest{Mode: mode, Escape: escape}
	if text {
		req.CDG = string(g.ExportCDG())
	} else if err := json.Unmarshal(g.ExportJSON(), &req.Graph); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGraphDecodeAllocs pins the allocations of decoding a bench-sized
// request (732 channels, 2,100 edges) into its cache query. The
// encoding/json path it replaced made 1,353 (JSON) and 2,670 (text) on
// this graph.
func TestGraphDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, tc := range []struct {
		name    string
		text    bool
		ceiling float64
	}{
		{"json", false, 13},
		{"text", true, 13},
	} {
		body := dragonflyGraphBody(t, benchDragonfly, tc.text, "loop")
		allocs := testing.AllocsPerRun(50, func() {
			req, err := decodeGraphRequest(bytes.NewReader(body), int64(len(body)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := req.build(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per request (%d-byte body)", tc.name, allocs, len(body))
		if allocs > tc.ceiling {
			t.Errorf("%s: %.0f allocs per request, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}

// TestGraphDecodeKeysMatchLegacy pins that the decoder's mode-cache key
// equals cdg.ModeKey over the edge set the replaced path built, for every
// golden in every mode and in both encodings of the dragonfly.
func TestGraphDecodeKeysMatchLegacy(t *testing.T) {
	var bodies [][]byte
	for _, mode := range []string{"loop", "liveness", "escape", "subrel"} {
		for _, name := range []string{"xy3x3-out4.txt", "cycle4.txt", "escape-ok.txt", "deadend.txt", "escape-ok.json"} {
			bodies = append(bodies, goldenGraphBody(t, name, mode))
		}
		bodies = append(bodies, dragonflyGraphBody(t, benchDragonfly, false, mode), dragonflyGraphBody(t, benchDragonfly, true, mode))
	}
	for _, body := range bodies {
		want, err := legacyGraphRequest(body)
		if err != nil {
			t.Fatalf("legacy path rejects %.80s: %v", body, err)
		}
		req, err := decodeGraphRequest(bytes.NewReader(body), int64(len(body)))
		if err != nil {
			t.Fatalf("decoder rejects %.80s: %v", body, err)
		}
		q, err := req.build()
		if err != nil {
			t.Fatal(err)
		}
		g := want.graph
		if key, check := cdg.ModeKey(g.Edges, want.mode, g.Inputs, g.Outputs, want.escape); q.Key != key || q.Check != check {
			t.Fatalf("%.80s: key %x/%x, want %x/%x", body, q.Key, q.Check, key, check)
		}
	}
}

// TestGraphDecodeConcurrent decodes from several goroutines at once, so
// that -race sees the pooled buffers and decoder scratch shared by
// nothing a decoded request keeps.
func TestGraphDecodeConcurrent(t *testing.T) {
	var bodies [][]byte
	var keys []uint64
	for _, text := range []bool{false, true} {
		for _, mode := range []string{"loop", "escape"} {
			body := dragonflyGraphBody(t, benchDragonfly, text, mode)
			want, err := legacyGraphRequest(body)
			if err != nil {
				t.Fatal(err)
			}
			g := want.graph
			key, _ := cdg.ModeKey(g.Edges, want.mode, g.Inputs, g.Outputs, want.escape)
			bodies, keys = append(bodies, body), append(keys, key)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (w + i) % len(bodies)
				req, err := decodeGraphRequest(bytes.NewReader(bodies[k]), -1)
				if err != nil {
					t.Error(err)
					return
				}
				if q, err := req.build(); err != nil || q.Key != keys[k] {
					t.Errorf("body %d: key %x err %v, want %x", k, q.Key, err, keys[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGraphRejectsOversizeCheaply pins that a graph over the request
// limits fails before it costs memory in proportion to what it claims:
// a 37-byte body declaring 2^20 channels used to allocate 24 MiB of edge
// rows before its 400.
func TestGraphRejectsOversizeCheaply(t *testing.T) {
	var edges strings.Builder
	edges.WriteString(`4096\n\n\n`)
	for from, n := 0, 0; n <= maxGraphEdges; from++ {
		edges.WriteString(strconv.Itoa(from))
		for to := 0; to < 64 && n <= maxGraphEdges; to, n = to+1, n+1 {
			edges.WriteString(" " + strconv.Itoa(to))
		}
		edges.WriteString(`\n`)
	}
	for _, tc := range []struct {
		name  string
		body  string
		bound uint64
	}{
		{"json channels", `{"graph":{"channels":1048576,"inputs":[],"outputs":[],"edges":[]},"mode":"loop"}`, 1 << 20},
		{"text channels", `{"cdg":"1048576\n\n\n","mode":"loop"}`, 1 << 20},
		// The edges up to the limit are stored (512 KiB of rows); the one
		// past it is not, and neither is the rest of the body.
		{"text edges", `{"cdg":"` + edges.String() + `","mode":"loop"}`, 1 << 20},
	} {
		body := []byte(tc.body)
		d := &graphDecoder{dec: graphio.Decoder{Limits: graphLimits}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := d.decode(body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d-byte body rejected after %d bytes allocated: %v", tc.name, len(body), got, err)
		if got > tc.bound {
			t.Errorf("%s: allocated more than the bound, %d bytes", tc.name, tc.bound)
		}
	}
}
