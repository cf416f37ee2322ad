package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ebda/internal/cdg"
	"ebda/internal/cluster"
	"ebda/internal/graphio"
	"ebda/internal/topology"
)

// FuzzDecodeVerifyRequest drives the API's decode + validation surface
// with arbitrary bodies. Properties: never panic, never accept a request
// that violates the admission limits, and accepted requests survive a
// marshal/decode round trip (the wire form is canonical).
func FuzzDecodeVerifyRequest(f *testing.F) {
	seeds := []string{
		`{"network":{"kind":"mesh","sizes":[6,6]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`,
		`{"network":{"kind":"torus","sizes":[4,4]},"turns":"X+>Y+,X+>Y-"}`,
		`{"network":{"kind":"mesh","sizes":[3,3,3]},"chain":"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]","no_ui_turns":true}`,
		`{"network":{"kind":"mesh","sizes":[64,64]},"chain":"PA[X+]"}`,
		`{"network":{"kind":"ring","sizes":[8]},"chain":"PA[X+]"}`,
		`{"network":{"kind":"mesh","sizes":[1,1]},"turns":"X+>Y+"}`,
		`{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X+]","turns":"X+>Y+"}`,
		`{"network":{"kind":"mesh","sizes":[4,4]}}`,
		`{}`,
		``,
		`not json`,
		`[1,2,3]`,
		`{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X+ X- Y-] -> PB[Y+]"} trailing`,
		foreignDimsBody(),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	nets := newNetworkCache()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeVerifyRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted requests are within the admission envelope.
		if err := req.Network.validate(); err != nil {
			t.Fatalf("accepted request fails network validation: %v", err)
		}
		if (req.Chain == "") == (req.Turns == "") {
			t.Fatalf("accepted request has chain=%q turns=%q", req.Chain, req.Turns)
		}
		// The wire form round-trips.
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
		again, err := DecodeVerifyRequest(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, wire)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed the request: %+v vs %+v", req, again)
		}
		// build may reject the design (parse errors are data-dependent)
		// but must not panic, and network construction stays within the
		// validated envelope.
		if b, err := req.build(nets); err == nil {
			if b.net.Nodes() > maxNodes {
				t.Fatalf("built network exceeds node cap: %d", b.net.Nodes())
			}
		}
	})
}

// FuzzDecodeDeltaRequest drives the delta API's decode + validation
// surface and, for small bases, the engine behind it. Properties: never
// panic; accepted requests stay within the admission limits and their
// wire form is a marshal/decode fixed point; building the base and
// lowering the diff never panic; and on bases of at most 512 channels a
// lowered diff either fails with cdg.ErrBadDiff or answers exactly what a
// from-scratch verification of the perturbed design answers.
func FuzzDecodeDeltaRequest(f *testing.F) {
	mesh := `{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`
	cyclic := `{"network":{"kind":"torus","sizes":[4,3]},"turns":"X+>Y+,Y+>X-,X->Y-,Y->X+"}`
	vc := `{"network":{"kind":"mesh","sizes":[5,4]},"chain":"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"}`
	seeds := []string{
		`{"base":` + mesh + `,"remove_links":[{"at":[1,2],"dir":"X+"}]}`,
		`{"base":` + mesh + `,"remove_links":[{"at":[1,2],"dir":"X+"},{"at":[1,2],"dir":"X+"},{"at":[0,0],"dir":"Y+"}]}`,
		`{"base":` + mesh + `,"disable_turns":"X+>Y+","enable_turns":"Y+>X+"}`,
		`{"base":` + mesh + `,"disable_turns":"X+>Y+","enable_turns":"X+>Y+","remove_links":[{"at":[3,0],"dir":"Y+"}]}`,
		`{"base":` + mesh + `,"disable_turns":"Y+>X+"}`,
		`{"base":` + mesh + `,"enable_turns":"X+>Z+"}`,
		`{"base":` + cyclic + `,"remove_links":[{"at":[3,1],"dir":"X+"}],"disable_turns":"X+>Y+"}`,
		`{"base":` + vc + `,"base_key":"0","remove_links":[{"at":[2,2],"dir":"Y-"}],"enable_turns":"Y2+>X1+"}`,
		`{"base":` + mesh + `,"remove_links":[{"at":[3,3],"dir":"X+"}]}`,
		`{"base":` + mesh + `,"remove_links":[{"at":[0],"dir":"X+"}]}`,
		`{"base":` + mesh + `,"remove_links":[]}`,
		`{"base":` + mesh + `}`,
		`{"base":{"network":{"kind":"mesh","sizes":[64,64]},"chain":"PA[X+]"},"remove_links":[{"at":[0,0],"dir":"X+"}]}`,
		`{}`,
		``,
		`not json`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	nets := newNetworkCache()
	cache := &cdg.VerifyCache{}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeDeltaRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(req.RemoveLinks) > maxDeltaLinks || len(req.DisableTurns) > maxSpecLen || len(req.EnableTurns) > maxSpecLen ||
			len(req.Base.Chain) > maxSpecLen || len(req.Base.Turns) > maxSpecLen {
			t.Fatalf("accepted request exceeds the admission limits: %+v", req)
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
		again, err := DecodeDeltaRequest(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, wire)
		}
		if wire2, err := json.Marshal(again); err != nil || !bytes.Equal(wire2, wire) {
			t.Fatalf("round trip changed the request:\n%s\n%s", wire, wire2)
		}
		b, err := req.Base.build(nets)
		if err != nil {
			return
		}
		diff, err := req.buildDiff(b)
		if err != nil {
			return
		}
		channels := 0
		for _, l := range b.net.Links() {
			channels += b.vcs.VCs(l.Dim)
		}
		if channels > 512 {
			return
		}
		got, err := cache.Verify(context.Background(), cdg.DeltaQuery(b.net, b.vcs, b.ts, diff))
		if err != nil {
			if !errors.Is(err, cdg.ErrBadDiff) {
				t.Fatalf("delta failed without ErrBadDiff: %v", err)
			}
			return
		}
		mod := b.ts.Clone()
		for _, tn := range diff.DisableTurns {
			mod.Remove(tn.From, tn.To)
		}
		for _, tn := range diff.EnableTurns {
			mod.Add(tn.From, tn.To, tn.Source)
		}
		net := b.net
		if len(diff.RemoveLinks) > 0 {
			net = net.WithoutLinks(diff.RemoveLinks)
		}
		want := cdg.VerifyTurnSet(net, b.vcs, mod)
		if got.Network != want.Network || got.Channels != want.Channels || got.Edges != want.Edges ||
			got.Acyclic != want.Acyclic || cdg.FormatCycle(got.Cycle) != cdg.FormatCycle(want.Cycle) {
			t.Fatalf("delta %s\nfresh %s", got, want)
		}
	})
}

// FuzzPeerLookupResponse drives the non-owner side of cluster routing
// with arbitrary owner answers. A fake owner answers both the peer cache
// probe (GET /v1/peer/lookup/...) and the forwarded request with status
// 200 and the fuzzed body; the replica under test owns neither the
// verify nor the delta design it is asked for. Properties: the handler
// never panics and never answers 5xx; a body the replica's decoder
// rejects never becomes a "peer" or "forwarded" verdict; and a verdict
// the replica computed itself equals a from-scratch verify.
func FuzzPeerLookupResponse(f *testing.F) {
	seeds := []string{
		`{"found":true,"network":"4x4 mesh","channels":48,"edges":60,"acyclic":true}`,
		`{"found":true,"acyclic":false,"cycle":"a -> b -> a"}`,
		`{"found":false}`,
		`{"network":"4x4 mesh","channels":48,"edges":60,"acyclic":true,"provenance":"computed","key":"1"}`,
		`{"found":true} trailing`,
		`{"found":"yes"}`,
		`{"found":true,"channels":1e400}`,
		`null`,
		`[]`,
		``,
		`not json`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), false)
		f.Add([]byte(s), true)
	}

	var answer atomic.Pointer[[]byte]
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusOK)
		w.Write(*answer.Load())
	}))
	f.Cleanup(owner.Close)
	ring, err := cluster.New([]string{"owner", "self"})
	if err != nil {
		f.Fatal(err)
	}
	s := newServer(Config{Cluster: &ClusterConfig{
		Self: "self", Ring: ring, Peers: map[string]string{"owner": owner.URL},
	}}, &cdg.VerifyCache{})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	mux := http.NewServeMux()
	s.Register(mux)

	verifyBody, _ := designOwnedBy(f, ring, "owner")
	verifyReq, err := DecodeVerifyRequest(strings.NewReader(verifyBody))
	if err != nil {
		f.Fatal(err)
	}
	vb, err := verifyReq.build(s.nets)
	if err != nil {
		f.Fatal(err)
	}
	wantVerify := cdg.VerifyTurnSet(vb.net, vb.vcs, vb.ts)
	deltaBody, wantDelta := deltaOwnedBy(f, s, ring, "owner")

	f.Fuzz(func(t *testing.T, body []byte, delta bool) {
		answer.Store(&body)
		// A fresh cache per input: a verdict computed for an earlier
		// input must not answer this one from the replica's own cache.
		s.cache = &cdg.VerifyCache{}
		path, reqBody, want, relayed := "/v1/verify", verifyBody, wantVerify, any(&VerifyResponse{})
		if delta {
			path, reqBody, want, relayed = "/v1/verify/delta", deltaBody, wantDelta, &DeltaResponse{}
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(reqBody)))
		if rec.Code >= 500 {
			t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var got VerifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s response does not decode: %v: %s", path, err, rec.Body)
		}
		switch got.Provenance {
		case provPeer:
			var pl PeerLookupResponse
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&pl); err != nil || !pl.Found {
				t.Fatalf("owner probe answer %q (decode err %v) became a peer verdict", body, err)
			}
		case provForwarded:
			if err := json.Unmarshal(body, relayed); err != nil {
				t.Fatalf("owner forward answer %q (decode err %v) became a forwarded verdict", body, err)
			}
		case provComputed, provDelta:
			if got.Network != want.Network || got.Channels != want.Channels || got.Edges != want.Edges ||
				got.Acyclic != want.Acyclic || (!want.Acyclic && got.Cycle != cdg.FormatCycle(want.Cycle)) {
				t.Fatalf("computed %s verdict %+v, from scratch %v", path, got, want)
			}
		default:
			t.Fatalf("%s answered with provenance %q", path, got.Provenance)
		}
	})
}

// deltaOwnedBy searches single-link removals on a small base for a delta
// request whose cache key the ring assigns to wantOwner, returning the
// request body and the from-scratch verdict of the perturbed design.
func deltaOwnedBy(t testing.TB, s *Server, ring *cluster.Ring, wantOwner string) (string, cdg.Report) {
	t.Helper()
	const base = `{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`
	for x := 0; x < 3; x++ {
		for y := 0; y < 4; y++ {
			body := fmt.Sprintf(`{"base":%s,"remove_links":[{"at":[%d,%d],"dir":"X+"}]}`, base, x, y)
			req, err := DecodeDeltaRequest(strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, err := req.Base.build(s.nets)
			if err != nil {
				t.Fatal(err)
			}
			diff, err := req.buildDiff(b)
			if err != nil {
				t.Fatal(err)
			}
			if ring.Owner(cdg.DeltaQuery(b.net, b.vcs, b.ts, diff).Key) == wantOwner {
				return body, cdg.VerifyTurnSet(b.net.WithoutLinks(diff.RemoveLinks), b.vcs, b.ts)
			}
		}
	}
	t.Fatalf("no probe delta owned by %q", wantOwner)
	return "", cdg.Report{}
}

// FuzzDecodeGraphRequest holds the single-pass /v1/verify/graph decoder
// against the path it replaced (legacyGraphRequest). Both must accept
// and reject the same bodies, and on accept agree on the canonical
// graph bytes, the mode, the escape set and the mode-cache key. The one
// allowed disagreement is a body the legacy path accepts and the
// decoder rejects for a documented strictness (graphTightening).
func FuzzDecodeGraphRequest(f *testing.F) {
	for _, tc := range graphBadRequests {
		f.Add([]byte(tc.body))
	}
	for _, name := range []string{"xy3x3-out4.txt", "cycle4.txt", "escape-ok.txt", "deadend.txt", "escape-ok.json"} {
		f.Add(goldenGraphBody(f, name, "liveness"))
	}
	// A small dragonfly: the mutator minimizes every new input it finds,
	// which on a bench-sized body would eat the short fuzz budget.
	f.Add(dragonflyGraphBody(f, topology.Dragonfly{Groups: 3, Routers: 2, Terminals: 1}, true, "escape"))
	for _, s := range []string{
		// CRLF, Unicode spaces, signs and leading zeros in the text form.
		`{"cdg":"3\r\n0\u00a01\r\n2\r\n+0 1\u2003002\n# c\n\n1 2","mode":"loop"}`,
		`{"cdg":"1\n\n\n0 0","mode":"loop"}`,
		// Edges before the channel count, and senders out of order.
		`{"graph":{"edges":[[1,0],[0,1]],"channels":2},"mode":"loop"}`,
		`{"graph":{"channels":3,"edges":[[2,1],[0,1],[2,0],[0,2]]},"mode":"loop"}`,
		// Escaped keys and strings, nulls, an empty cdg beside a graph.
		`{"gr\u0061ph":{"channels":1},"mode":"lo\u006fp","escape":null}`,
		`{"cdg":"","graph":{"channels":1,"inputs":null},"mode":"loop"}`,
		`{"graph":null,"cdg":"1\n0\n0\n","mode":"liveness"}`,
		graphBody("escape", `,"escape":[4,4]`),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := legacyGraphRequest(body)
		got, err := decodeGraphRequest(bytes.NewReader(slices.Clone(body)), int64(len(body)))
		var q cdg.Query[cdg.ModeReport]
		if err == nil {
			q, err = got.build()
		}
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("decoder accepts a body the legacy path rejects (%v): %q", wantErr, body)
		case wantErr == nil && err != nil:
			if graphTightening(body) == "" {
				t.Fatalf("decoder rejects a body the legacy path accepts: %v: %q", err, body)
			}
		case wantErr == nil:
			if a, b := got.graph.ExportCDG(), want.graph.ExportCDG(); !bytes.Equal(a, b) {
				t.Fatalf("graphs differ:\n%s---\n%s", a, b)
			}
			if got.mode != want.mode || !slices.Equal(got.escape, want.escape) {
				t.Fatalf("decoded mode %v escape %v, want %v %v", got.mode, got.escape, want.mode, want.escape)
			}
			g := want.graph
			if key, check := cdg.ModeKey(g.Edges, want.mode, g.Inputs, g.Outputs, want.escape); q.Key != key || q.Check != check {
				t.Fatalf("mode key %x/%x, want %x/%x", q.Key, q.Check, key, check)
			}
		}
	})
}

// legacyGraphRequest is the /v1/verify/graph decode path the single-pass
// decoder replaced, kept as its differential oracle: encoding/json into
// GraphVerifyRequest, the graph built edge by edge with EdgeSet.AddEdge
// (the text form split with the strings package), then the limit and
// escape checks.
func legacyGraphRequest(body []byte) (graphRequest, error) {
	var req GraphVerifyRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		return graphRequest{}, err
	}
	mode, err := cdg.ParseGraphMode(req.Mode)
	if err != nil {
		return graphRequest{}, err
	}
	var g *graphio.Graph
	switch {
	case req.Graph != nil && req.CDG != "":
		return graphRequest{}, errBothEncodings
	case req.Graph != nil:
		g, err = legacyGraph(req.Graph.Channels, req.Graph.Inputs, req.Graph.Outputs, req.Graph.Edges)
	case req.CDG != "":
		g, err = legacyParseCDG(req.CDG)
	default:
		return graphRequest{}, errors.New("one of graph or cdg is required")
	}
	if err != nil {
		return graphRequest{}, err
	}
	if n := g.Edges.NumNodes(); n > maxGraphChannels {
		return graphRequest{}, fmt.Errorf("graph has %d channels, limit %d", n, maxGraphChannels)
	}
	if n := g.Edges.NumEdges(); n > maxGraphEdges {
		return graphRequest{}, fmt.Errorf("graph has %d edges, limit %d", n, maxGraphEdges)
	}
	r := graphRequest{graph: g, mode: mode, escape: req.Escape}
	if _, err := r.build(); err != nil {
		return graphRequest{}, err
	}
	return r, nil
}

func legacyGraph(channels int, inputs, outputs []int, edges [][2]int) (*graphio.Graph, error) {
	if channels < 0 || channels > graphio.MaxChannels {
		return nil, fmt.Errorf("bad channel count %d", channels)
	}
	g := &graphio.Graph{Edges: cdg.NewEdgeSet(channels)}
	var err error
	if g.Inputs, err = legacyIDs(inputs, channels); err != nil {
		return nil, err
	}
	if g.Outputs, err = legacyIDs(outputs, channels); err != nil {
		return nil, err
	}
	for _, e := range edges {
		if e[0] < 0 || e[0] >= channels || e[1] < 0 || e[1] >= channels {
			return nil, fmt.Errorf("edge %v out of range", e)
		}
		if !g.Edges.AddEdge(e[0], e[1]) {
			return nil, fmt.Errorf("duplicate edge %v", e)
		}
	}
	return g, nil
}

func legacyIDs(ids []int, channels int) ([]int, error) {
	out := append([]int{}, ids...)
	for _, v := range out {
		if v < 0 || v >= channels {
			return nil, fmt.Errorf("id %d out of range", v)
		}
	}
	sort.Ints(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			return nil, fmt.Errorf("id %d listed twice", out[i])
		}
	}
	return out, nil
}

func legacyParseCDG(text string) (*graphio.Graph, error) {
	lines := strings.Split(text, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	cursor := 0
	next := func(blankOK bool) (string, bool) {
		for ; cursor < len(lines); cursor++ {
			ln := strings.TrimSuffix(lines[cursor], "\r")
			trimmed := strings.TrimSpace(ln)
			if strings.HasPrefix(trimmed, "#") || (trimmed == "" && blankOK) {
				continue
			}
			cursor++
			return ln, true
		}
		return "", false
	}
	fields := func(s string) ([]int, error) {
		var out []int
		for _, f := range strings.Fields(s) {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	countLine, ok := next(true)
	if !ok {
		return nil, errors.New("count line missing")
	}
	channels, err := strconv.Atoi(strings.TrimSpace(countLine))
	if err != nil || channels < 0 || channels > graphio.MaxChannels {
		return nil, fmt.Errorf("bad count %q", countLine)
	}
	var sets [2][]int
	for i := range sets {
		ln, ok := next(false)
		if !ok {
			return nil, errors.New("id line missing")
		}
		ids, err := fields(ln)
		if err != nil {
			return nil, err
		}
		if sets[i], err = legacyIDs(ids, channels); err != nil {
			return nil, err
		}
	}
	var edges [][2]int
	for {
		ln, ok := next(true)
		if !ok {
			return legacyGraph(channels, sets[0], sets[1], edges)
		}
		ids, err := fields(ln)
		if err != nil {
			return nil, err
		}
		if len(ids) < 2 {
			return nil, errors.New("lonely sender")
		}
		for _, to := range ids[1:] {
			edges = append(edges, [2]int{ids[0], to})
		}
	}
}

// graphTightening names the documented strictness of the single-pass
// decoder over encoding/json that body trips, or "" if it trips none:
// an edge that is not exactly two integers or a null id, a repeated
// key, a key matching a field only case-insensitively, or non-space
// bytes after the request object (encoding/json's More lets a stray '}'
// or ']' through).
func graphTightening(body []byte) string {
	dec := json.NewDecoder(bytes.NewReader(body))
	fields := map[string][]string{
		"":       {"graph", "cdg", "mode", "escape"},
		".graph": {"channels", "inputs", "outputs", "edges"},
	}
	var value func(path string) string
	value = func(path string) string {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		switch {
		case tok == json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				kt, err := dec.Token()
				if err != nil {
					return ""
				}
				key, _ := kt.(string)
				if seen[key] {
					return "repeated key"
				}
				seen[key] = true
				if !slices.Contains(fields[path], key) {
					return "case-folded key"
				}
				if why := value(path + "." + key); why != "" {
					return why
				}
			}
			dec.Token()
		case tok == json.Delim('['):
			for i := 0; dec.More(); i++ {
				switch path {
				case ".graph.edges":
					if tok, _ := dec.Token(); tok != json.Delim('[') {
						return "edge arity"
					}
					n := 0
					for ; dec.More(); n++ {
						if tok, _ := dec.Token(); tok == nil {
							return "edge arity"
						}
					}
					dec.Token()
					if n != 2 {
						return "edge arity"
					}
				case ".graph.inputs", ".graph.outputs", ".escape":
					if tok, _ := dec.Token(); tok == nil {
						return "null id"
					}
				default:
					if why := value(path + "[]"); why != "" {
						return why
					}
				}
			}
			dec.Token()
		}
		return ""
	}
	if why := value(""); why != "" {
		return why
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return "trailing bracket"
	}
	return ""
}
