package serve

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/cluster"
)

// testReplica is one member of an in-process test cluster.
type testReplica struct {
	srv   *Server
	cache *cdg.VerifyCache
	ts    *httptest.Server
}

// testCluster starts one isolated server per name, all sharing a ring
// over ringMembers (names outside ringMembers run as edge routers).
// Each replica has a private cache, so ownership is observable.
func testCluster(t *testing.T, names, ringMembers []string, noForward bool) map[string]*testReplica {
	t.Helper()
	ring, err := cluster.New(ringMembers)
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
		srv := NewReplica(Config{Cluster: &ClusterConfig{
			Self:      name,
			Ring:      ring,
			Peers:     peers,
			NoForward: noForward,
		}}, cache)
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

// designOwnedBy searches a family of designs for one whose verify key
// the ring assigns to wantOwner, returning the request body and key. The
// probes are tori whose turn sets leave one direction undeclared, so its
// channels cannot continue straight and the owner always builds and
// peels a concrete graph: a mesh design, or a torus design whose every
// channel may continue straight, could be answered by its quotient.
func designOwnedBy(t testing.TB, ring *cluster.Ring, wantOwner string) (string, uint64) {
	t.Helper()
	nets := newNetworkCache()
	for size := 4; size <= 9; size++ {
		for _, turns := range []string{
			"X+>Y+,X+>Y-,Y+>X+",
			"X->Y+,X->Y-,Y->X-",
			"Y+>X+,Y+>X-,X+>Y+",
		} {
			req := VerifyRequest{
				Network: NetworkSpec{Kind: "torus", Sizes: []int{size, size}},
				Turns:   turns,
			}
			b, err := req.build(nets)
			if err != nil {
				t.Fatal(err)
			}
			key, _ := cdg.VerifyKey(b.net, b.vcs, b.ts)
			if ring.Owner(key) == wantOwner {
				body, _ := json.Marshal(req)
				return string(body), key
			}
		}
	}
	t.Fatalf("no probe design owned by %q", wantOwner)
	return "", 0
}

// sameVerdict compares two verify or delta responses, decoded or raw
// JSON, field for field except provenance and fails on a mismatch — the
// cluster's byte-identical-verdicts contract.
func sameVerdict(t *testing.T, a, b any, label string) {
	t.Helper()
	aj, bj := withoutProvenance(t, a), withoutProvenance(t, b)
	if aj != bj {
		t.Fatalf("%s: verdicts diverged:\n%s\nvs\n%s", label, aj, bj)
	}
}

// withoutProvenance renders a response as canonical JSON (sorted keys)
// with its provenance field dropped.
func withoutProvenance(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "provenance")
	canon, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return string(canon)
}

func TestClusterRoutingProvenance(t *testing.T) {
	names := []string{"r0", "r1"}
	reps := testCluster(t, names, names, false)
	ring := reps["r0"].srv.cluster.ring
	body, _ := designOwnedBy(t, ring, "r0")

	// Cold key at the non-owner: proxied to the owner, which computes.
	status, raw := post(t, reps["r1"].ts, "/v1/verify", body)
	if status != 200 {
		t.Fatalf("non-owner POST = %d: %s", status, raw)
	}
	var fwd VerifyResponse
	if err := json.Unmarshal(raw, &fwd); err != nil {
		t.Fatal(err)
	}
	if fwd.Provenance != provForwarded {
		t.Fatalf("cold misrouted verdict provenance = %q, want %q", fwd.Provenance, provForwarded)
	}

	// Same key at the non-owner again: its own cache is still cold (the
	// forward seeded the owner), so the peer probe answers.
	status, raw = post(t, reps["r1"].ts, "/v1/verify", body)
	if status != 200 {
		t.Fatalf("repeat POST = %d: %s", status, raw)
	}
	var peer VerifyResponse
	if err := json.Unmarshal(raw, &peer); err != nil {
		t.Fatal(err)
	}
	if peer.Provenance != provPeer {
		t.Fatalf("warm misrouted verdict provenance = %q, want %q", peer.Provenance, provPeer)
	}
	sameVerdict(t, fwd, peer, "forwarded vs peer")

	// At the owner: a plain cache hit.
	status, raw = post(t, reps["r0"].ts, "/v1/verify", body)
	if status != 200 {
		t.Fatalf("owner POST = %d: %s", status, raw)
	}
	var own VerifyResponse
	if err := json.Unmarshal(raw, &own); err != nil {
		t.Fatal(err)
	}
	if own.Provenance != provCache {
		t.Fatalf("owner verdict provenance = %q, want %q", own.Provenance, provCache)
	}
	sameVerdict(t, fwd, own, "forwarded vs owner")
}

func TestClusterPeerLookupEndpoint(t *testing.T) {
	names := []string{"r0", "r1"}
	reps := testCluster(t, names, names, false)
	ring := reps["r0"].srv.cluster.ring
	body, key := designOwnedBy(t, ring, "r0")

	// Seed the owner's cache, then probe it directly.
	if status, raw := post(t, reps["r0"].ts, "/v1/verify", body); status != 200 {
		t.Fatalf("seed POST = %d: %s", status, raw)
	}
	req := VerifyRequest{}
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	b, err := req.build(newNetworkCache())
	if err != nil {
		t.Fatal(err)
	}
	_, check := cdg.VerifyKey(b.net, b.vcs, b.ts)

	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, []byte(sb.String())
	}

	keyHex := strconv.FormatUint(key, 16)
	checkHex := strconv.FormatUint(check, 16)
	status, raw := get(reps["r0"].ts.URL + "/v1/peer/lookup/" + keyHex + "?check=" + checkHex)
	if status != 200 {
		t.Fatalf("peer lookup = %d: %s", status, raw)
	}
	var pl PeerLookupResponse
	if err := json.Unmarshal(raw, &pl); err != nil {
		t.Fatal(err)
	}
	if !pl.Found || pl.Channels == 0 || pl.Edges == 0 {
		t.Fatalf("peer lookup hit incomplete: %+v", pl)
	}

	// A wrong check hash is a miss, never a wrong report.
	status, _ = get(reps["r0"].ts.URL + "/v1/peer/lookup/" + keyHex + "?check=0")
	if status != http.StatusNotFound {
		t.Fatalf("wrong-check lookup = %d, want 404", status)
	}
	// Malformed identities are 400s.
	status, _ = get(reps["r0"].ts.URL + "/v1/peer/lookup/zzz?check=" + checkHex)
	if status != http.StatusBadRequest {
		t.Fatalf("bad-key lookup = %d, want 400", status)
	}
	status, _ = get(reps["r0"].ts.URL + "/v1/peer/lookup/" + keyHex + "?check=zzz")
	if status != http.StatusBadRequest {
		t.Fatalf("bad-check lookup = %d, want 400", status)
	}
}

func TestClusterForwardLoopProtection(t *testing.T) {
	names := []string{"r0", "r1"}
	reps := testCluster(t, names, names, false)
	ring := reps["r0"].srv.cluster.ring
	body, _ := designOwnedBy(t, ring, "r0")

	// A request already marked forwarded must be served locally by the
	// non-owner — never bounced onward, even though r0 owns the key.
	hreq, err := http.NewRequest(http.MethodPost, reps["r1"].ts.URL+"/v1/verify", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(ForwardHeader, "test")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("forwarded POST = %d", resp.StatusCode)
	}
	if vr.Provenance != provComputed {
		t.Fatalf("forwarded request provenance = %q, want %q (local compute, no second hop)", vr.Provenance, provComputed)
	}
	// The owner's cache stayed cold: the request really did stop here.
	if reps["r0"].cache.Stats().Entries != 0 {
		t.Fatal("loop-protected request still reached the owner")
	}
}

// TestClusterForwardSetsHeader pins the sending side of loop protection:
// a non-owner proxies a request to its owner marked with ForwardHeader,
// naming itself. The owner is a stub that misses every peer lookup and
// records the headers of what it is forwarded.
func TestClusterForwardSetsHeader(t *testing.T) {
	ring, err := cluster.New([]string{"r0", "r1"})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu  sync.Mutex
		got []http.Header
	)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		got = append(got, r.Header.Clone())
		mu.Unlock()
		io.Copy(io.Discard, r.Body)
		writeJSON(w, http.StatusOK, VerifyResponse{Network: "stub", Provenance: provComputed})
	}))
	t.Cleanup(stub.Close)
	srv := NewReplica(Config{Cluster: &ClusterConfig{
		Self:  "r1",
		Ring:  ring,
		Peers: map[string]string{"r0": stub.URL},
	}}, &cdg.VerifyCache{})
	mux := http.NewServeMux()
	srv.Register(mux)
	hts := httptest.NewServer(mux)
	t.Cleanup(func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	body, _ := designOwnedBy(t, ring, "r0")
	status, raw := post(t, hts, "/v1/verify", body)
	if status != http.StatusOK {
		t.Fatalf("POST = %d: %s", status, raw)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Provenance != provForwarded {
		t.Fatalf("provenance = %q, want %q", vr.Provenance, provForwarded)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("owner stub received %d forwards, want 1", len(got))
	}
	if h := got[0].Get(ForwardHeader); h != "r1" {
		t.Fatalf("forwarded request %s = %q, want the sender %q", ForwardHeader, h, "r1")
	}
}

func TestClusterNoForwardDegradesToLocalCompute(t *testing.T) {
	names := []string{"r0", "r1"}
	reps := testCluster(t, names, names, true)
	ring := reps["r0"].srv.cluster.ring
	body, _ := designOwnedBy(t, ring, "r0")

	status, raw := post(t, reps["r1"].ts, "/v1/verify", body)
	if status != 200 {
		t.Fatalf("no-forward POST = %d: %s", status, raw)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Provenance != provComputed {
		t.Fatalf("no-forward cold verdict provenance = %q, want %q", vr.Provenance, provComputed)
	}
}

func TestClusterDegradesWhenOwnerUnreachable(t *testing.T) {
	// A ring whose owner URL points at a dead listener: the non-owner
	// must still answer (local compute), not 5xx.
	ring, err := cluster.New([]string{"r0", "r1"})
	if err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close()

	cache := &cdg.VerifyCache{}
	srv := NewReplica(Config{Cluster: &ClusterConfig{
		Self:  "r1",
		Ring:  ring,
		Peers: map[string]string{"r0": deadURL},
	}}, cache)
	mux := http.NewServeMux()
	srv.Register(mux)
	hts := httptest.NewServer(mux)
	t.Cleanup(func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	body, _ := designOwnedBy(t, ring, "r0")
	status, raw := post(t, hts, "/v1/verify", body)
	if status != 200 {
		t.Fatalf("partitioned POST = %d: %s", status, raw)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Provenance != provComputed {
		t.Fatalf("partitioned verdict provenance = %q, want %q", vr.Provenance, provComputed)
	}
}

func TestClusterDeltaRouting(t *testing.T) {
	names := []string{"r0", "r1"}
	reps := testCluster(t, names, names, false)
	ring := reps["r0"].srv.cluster.ring

	// Find a delta whose identity r0 owns, driven from a fixed base.
	nets := newNetworkCache()
	var body string
	var found bool
	for size := 4; size <= 9 && !found; size++ {
		req := DeltaRequest{
			Base: VerifyRequest{
				Network: NetworkSpec{Kind: "mesh", Sizes: []int{size, size}},
				Chain:   "PA[X+ X- Y-] -> PB[Y+]",
			},
			RemoveLinks: []LinkSpec{{At: []int{1, 1}, Dir: "X+"}},
		}
		b, err := req.Base.build(nets)
		if err != nil {
			t.Fatal(err)
		}
		diff, err := req.buildDiff(b)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := cdg.DeltaKey(b.net, b.vcs, b.ts, diff)
		if ring.Owner(key) == "r0" {
			raw, _ := json.Marshal(req)
			body, found = string(raw), true
		}
	}
	if !found {
		t.Fatal("no probe delta owned by r0")
	}

	status, raw := post(t, reps["r1"].ts, "/v1/verify/delta", body)
	if status != 200 {
		t.Fatalf("non-owner delta POST = %d: %s", status, raw)
	}
	var fwd DeltaResponse
	if err := json.Unmarshal(raw, &fwd); err != nil {
		t.Fatal(err)
	}
	if fwd.Provenance != provForwarded {
		t.Fatalf("cold misrouted delta provenance = %q, want %q", fwd.Provenance, provForwarded)
	}
	if !strings.Contains(fwd.Network, "faulty") {
		t.Fatalf("forwarded delta response lost the perturbed network name: %+v", fwd)
	}

	status, raw = post(t, reps["r1"].ts, "/v1/verify/delta", body)
	if status != 200 {
		t.Fatalf("repeat delta POST = %d: %s", status, raw)
	}
	var peer DeltaResponse
	if err := json.Unmarshal(raw, &peer); err != nil {
		t.Fatal(err)
	}
	if peer.Provenance != provPeer {
		t.Fatalf("warm misrouted delta provenance = %q, want %q", peer.Provenance, provPeer)
	}
	sameVerdict(t, fwd, peer, "forwarded vs peer delta")
}

func TestClusterEdgeRouterOwnsNothing(t *testing.T) {
	// "edge" serves but is not a ring member: every key belongs to r0,
	// so edge answers via forward/peer and its own cache stays empty of
	// computed entries.
	reps := testCluster(t, []string{"r0", "edge"}, []string{"r0"}, false)
	body, _ := designOwnedBy(t, reps["r0"].srv.cluster.ring, "r0")

	status, raw := post(t, reps["edge"].ts, "/v1/verify", body)
	if status != 200 {
		t.Fatalf("edge POST = %d: %s", status, raw)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Provenance != provForwarded {
		t.Fatalf("edge verdict provenance = %q, want %q", vr.Provenance, provForwarded)
	}
	if reps["edge"].cache.Stats().Entries != 0 {
		t.Fatal("edge router computed locally")
	}
	if reps["r0"].cache.Stats().Entries == 0 {
		t.Fatal("owner cache not seeded by the forward")
	}
}

func TestClusterWarmStartServesFromCache(t *testing.T) {
	// A replica warm-started from another's snapshot must answer its
	// first hot-key request with provenance "cache", never "computed".
	names := []string{"r0", "r1"}
	reps := testCluster(t, names, names, false)
	ring := reps["r0"].srv.cluster.ring
	body, _ := designOwnedBy(t, ring, "r0")
	if status, raw := post(t, reps["r0"].ts, "/v1/verify", body); status != 200 {
		t.Fatalf("seed POST = %d: %s", status, raw)
	}

	var snap strings.Builder
	if _, err := cdg.SaveSnapshot(reps["r0"].cache, &snap); err != nil {
		t.Fatal(err)
	}

	// A fresh replica under the same name, warm-started from the file.
	cache := &cdg.VerifyCache{}
	if _, err := cdg.LoadSnapshot(cache, strings.NewReader(snap.String())); err != nil {
		t.Fatal(err)
	}
	warm := NewReplica(Config{}, cache)
	mux := http.NewServeMux()
	warm.Register(mux)
	hts := httptest.NewServer(mux)
	t.Cleanup(func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		warm.Shutdown(ctx)
	})

	status, raw := post(t, hts, "/v1/verify", body)
	if status != 200 {
		t.Fatalf("warm POST = %d: %s", status, raw)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Provenance != provCache {
		t.Fatalf("warm-started first verdict provenance = %q, want %q", vr.Provenance, provCache)
	}
}

func TestClusterConfigValidate(t *testing.T) {
	ring, err := cluster.New([]string{"r0", "r1"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  ClusterConfig
		ok   bool
	}{
		{"valid", ClusterConfig{Self: "r0", Ring: ring, Peers: map[string]string{"r1": "http://x"}}, true},
		{"edge self", ClusterConfig{Self: "edge", Ring: ring, Peers: map[string]string{"r0": "http://x", "r1": "http://y"}}, true},
		{"no self", ClusterConfig{Ring: ring, Peers: map[string]string{"r1": "http://x"}}, false},
		{"no ring", ClusterConfig{Self: "r0"}, false},
		{"missing peer", ClusterConfig{Self: "r0", Ring: ring}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

// engineVerdict holds the verdict fields every verify and delta response
// carries.
type engineVerdict struct {
	Network  string `json:"network"`
	Channels int    `json:"channels"`
	Edges    int    `json:"edges"`
	Acyclic  bool   `json:"acyclic"`
	Cycle    string `json:"cycle"`
}

// verdictOf renders an engine report's verdict fields, the way a
// response should carry them.
func verdictOf(rep cdg.Report) engineVerdict {
	v := engineVerdict{Network: rep.Network, Channels: rep.Channels, Edges: rep.Edges, Acyclic: rep.Acyclic}
	if !rep.Acyclic {
		v.Cycle = cdg.FormatCycle(rep.Cycle)
	}
	return v
}

// soakProbe is one design or delta of the soak stream: its request, the
// replica the ring assigns it to and the verdict a concrete, uncached
// verification outside the serving layer gives it.
type soakProbe struct {
	path, body, owner string
	want              engineVerdict
}

// soakProbes builds the soak's request set: EbDa chains on meshes and
// tori, which the size-free quotient answers (acyclic on a mesh, the X+
// ring on a torus), plus single-link removals from the delta base
// design, which the concrete delta path verifies.
func soakProbes(t *testing.T, ring *cluster.Ring) []soakProbe {
	t.Helper()
	nets := newNetworkCache()
	var probes []soakProbe
	for _, chain := range []string{
		"PA[X+ X- Y-] -> PB[Y+]",
		"PA[X+ X- Y+] -> PB[Y-]",
		"PA[X- Y+ Y-] -> PB[X+]",
		"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]",
	} {
		for _, spec := range []NetworkSpec{
			{Kind: "mesh", Sizes: []int{4, 4}},
			{Kind: "mesh", Sizes: []int{6, 6}},
			{Kind: "mesh", Sizes: []int{8, 8}},
			{Kind: "torus", Sizes: []int{4, 4}},
			{Kind: "torus", Sizes: []int{5, 5}},
		} {
			req := VerifyRequest{Network: spec, Chain: chain}
			b, err := req.build(nets)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := json.Marshal(req)
			probes = append(probes, soakProbe{
				path:  "/v1/verify",
				body:  string(body),
				owner: ring.Owner(b.q.Key),
				want:  verdictOf(cdg.VerifyTurnSet(b.net, b.vcs, b.ts)),
			})
		}
	}
	for _, link := range []LinkSpec{
		{At: []int{1, 1}, Dir: "X+"},
		{At: []int{2, 3}, Dir: "Y+"},
		{At: []int{4, 4}, Dir: "X-"},
		{At: []int{3, 2}, Dir: "Y-"},
	} {
		req := DeltaRequest{RemoveLinks: []LinkSpec{link}}
		if err := json.Unmarshal([]byte(deltaBaseBody), &req.Base); err != nil {
			t.Fatal(err)
		}
		b, err := req.Base.build(nets)
		if err != nil {
			t.Fatal(err)
		}
		diff, err := req.buildDiff(b)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := cdg.DeltaKey(b.net, b.vcs, b.ts, diff)
		body, _ := json.Marshal(req)
		probes = append(probes, soakProbe{
			path:  "/v1/verify/delta",
			body:  string(body),
			owner: ring.Owner(key),
			want:  verdictOf(cdg.VerifyTurnSet(b.net.WithoutLinks(diff.RemoveLinks), b.vcs, b.ts)),
		})
	}
	return probes
}

// TestClusterSoak drives four replicas with a seeded, concurrent stream
// of verify and delta requests, every tenth sent to a replica that does
// not own its key. A cold round asks each probe once, so its misroutes
// are forwarded to the owner; a hot round repeats probes at random, so
// its misroutes are answered from the owner's cache. Every request must
// succeed with the engine's verdict, and afterwards every replica must
// answer every probe with the same bytes, provenance aside.
func TestClusterSoak(t *testing.T) {
	names := []string{"r0", "r1", "r2", "r3"}
	reps := testCluster(t, names, names, false)
	ring := reps["r0"].srv.cluster.ring
	probes := soakProbes(t, ring)
	rng := rand.New(rand.NewSource(1))

	type item struct {
		probe *soakProbe
		entry string
	}
	var cold, hot []item
	for _, i := range rng.Perm(len(probes)) {
		cold = append(cold, item{probe: &probes[i]})
	}
	for i := 0; i < 300; i++ {
		hot = append(hot, item{probe: &probes[rng.Intn(len(probes))]})
	}
	for _, round := range [][]item{cold, hot} {
		for i := range round {
			it := &round[i]
			it.entry = it.probe.owner
			if i%10 == 9 {
				for it.entry == it.probe.owner {
					it.entry = names[rng.Intn(len(names))]
				}
			}
		}
	}

	var (
		mu    sync.Mutex
		provs = make(map[string]int)
	)
	drive := func(round []item) {
		const workers = 8
		next := make(chan item)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := range next {
					ts := reps[it.entry].ts
					resp, err := ts.Client().Post(ts.URL+it.probe.path, "application/json", strings.NewReader(it.probe.body))
					if err != nil {
						t.Error(err)
						continue
					}
					raw, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("%s at %s = %d (%v): %s", it.probe.path, it.entry, resp.StatusCode, err, raw)
						continue
					}
					var got struct {
						engineVerdict
						Provenance string `json:"provenance"`
					}
					if err := json.Unmarshal(raw, &got); err != nil {
						t.Error(err)
						continue
					}
					if got.engineVerdict != it.probe.want {
						t.Errorf("%s at %s (%s): verdict %+v, engine says %+v",
							it.probe.body, it.entry, got.Provenance, got.engineVerdict, it.probe.want)
					}
					mu.Lock()
					provs[got.Provenance]++
					mu.Unlock()
				}
			}()
		}
		for _, it := range round {
			next <- it
		}
		close(next)
		wg.Wait()
	}
	drive(cold)
	drive(hot)
	if t.Failed() {
		t.FailNow()
	}
	if provs[provPeer] == 0 || provs[provForwarded] == 0 {
		t.Fatalf("provenances %v: want both peer and forwarded verdicts", provs)
	}

	for _, p := range probes {
		var first []byte
		for _, name := range names {
			status, raw := post(t, reps[name].ts, p.path, p.body)
			if status != http.StatusOK {
				t.Fatalf("%s at %s = %d: %s", p.path, name, status, raw)
			}
			if first == nil {
				first = raw
				continue
			}
			sameVerdict(t, json.RawMessage(first), json.RawMessage(raw), p.body+" at r0 vs "+name)
		}
	}
	t.Logf("%d requests over %d probes, provenances %v", len(cold)+len(hot), len(probes), provs)
}
