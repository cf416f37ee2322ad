package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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
// probes are tori, so the owner always builds and peels a concrete graph:
// a mesh design could be answered by its quotient instead.
func designOwnedBy(t testing.TB, ring *cluster.Ring, wantOwner string) (string, uint64) {
	t.Helper()
	nets := newNetworkCache()
	for size := 4; size <= 9; size++ {
		for _, chain := range []string{
			"PA[X+ X- Y-] -> PB[Y+]",
			"PA[X+ X- Y+] -> PB[Y-]",
			"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]",
		} {
			req := VerifyRequest{
				Network: NetworkSpec{Kind: "torus", Sizes: []int{size, size}},
				Chain:   chain,
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

// sameVerdict compares every verdict field except provenance and fails
// on a mismatch — the cluster's byte-identical-verdicts contract.
func sameVerdict(t *testing.T, a, b VerifyResponse, label string) {
	t.Helper()
	a.Provenance, b.Provenance = "", ""
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("%s: verdicts diverged:\n%s\nvs\n%s", label, aj, bj)
	}
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
	fwd.Provenance, peer.Provenance = "", ""
	aj, _ := json.Marshal(fwd)
	bj, _ := json.Marshal(peer)
	if string(aj) != string(bj) {
		t.Fatalf("delta verdicts diverged:\n%s\nvs\n%s", aj, bj)
	}
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

func TestReadClusterBenchRejectsOtherKinds(t *testing.T) {
	if _, err := ReadClusterBench([]byte(`{"kind":"serve"}`)); err == nil {
		t.Error("serve snapshot accepted as cluster")
	}
	if _, err := ReadClusterBench([]byte(`{"kind":"cluster","replicas":4}`)); err != nil {
		t.Errorf("cluster snapshot rejected: %v", err)
	}
	if _, err := ReadClusterBench([]byte(`not json`)); err == nil {
		t.Error("malformed snapshot accepted")
	}
}
