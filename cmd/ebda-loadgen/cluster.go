package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/channel"
	"ebda/internal/cluster"
	"ebda/internal/core"
	"ebda/internal/serve"
	"ebda/internal/topology"
)

// The benchmark exercises the shard router: it starts N in-process
// replicas (each the full ebda-serve pipeline with a private verify
// cache), builds the deterministic consistent-hash ring over them, and
// drives a seeded workload whose requests are routed like a
// ring-aware client would — 90% to the key's owner, the rest
// deliberately misrouted to exercise the peer-lookup and forwarding
// paths.
//
// The host is one machine, so aggregate throughput cannot come from
// running the replicas' request streams in parallel: the same cores
// would serve all of them and the comparison would measure scheduler
// contention, not the router. Instead the workload is partitioned by
// entry replica and driven one phase per replica; the modeled cluster
// wall is the slowest phase, which is exactly the wall an N-machine
// cluster observes for independent per-replica streams. ScalingX =
// baseline wall / modeled cluster wall then measures what the router
// actually controls — shard balance and the cost of misroute hops —
// and is stable under the race detector because it is a ratio of walls
// measured under identical instrumentation.
//
// The design set is balanced by construction: distinct 8x8-mesh
// turn-subset designs are drawn (seeded) until every replica owns
// exactly designs/replicas of them, so the gate judges routing
// overhead rather than small-sample keyspace imbalance.

// clusterParams carries the parsed flag set.
type clusterParams struct {
	seed     uint64
	requests int
	conc     int
	replicas int
	designs  int
	misroute float64
	outPath  string
	smoke    bool
	cfg      serve.Config
}

// clusterDesign is one workload design with its precomputed routing
// identity.
type clusterDesign struct {
	body  string
	key   uint64
	owner string
}

// replicaProc is one in-process replica.
type replicaProc struct {
	name  string
	cache *cdg.VerifyCache
	srv   *serve.Server
	url   string
}

func runCluster(p clusterParams, out, errw io.Writer) int {
	if p.replicas < 2 {
		fmt.Fprintln(errw, "ebda-loadgen: -replicas must be at least 2")
		return 2
	}
	if p.designs < p.replicas || p.designs%p.replicas != 0 {
		fmt.Fprintln(errw, "ebda-loadgen: -designs must be a positive multiple of -replicas")
		return 2
	}
	if p.misroute < 0 || p.misroute > 0.5 {
		fmt.Fprintln(errw, "ebda-loadgen: -misroute outside [0, 0.5]")
		return 2
	}

	names := make([]string, p.replicas)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
	}
	ring, err := cluster.New(names)
	if err != nil {
		fmt.Fprintln(errw, "ebda-loadgen:", err)
		return 2
	}

	designs, err := balancedDesigns(p.seed, ring, p.designs/p.replicas)
	if err != nil {
		fmt.Fprintln(errw, "ebda-loadgen:", err)
		return 2
	}
	deltas, err := deltaProbeSet(ring)
	if err != nil {
		fmt.Fprintln(errw, "ebda-loadgen:", err)
		return 2
	}
	items := clusterWorkload(p.seed, p.requests, p.misroute, names, designs, deltas)

	client := &http.Client{Timeout: 60 * time.Second}

	// Phase 1: single-replica baseline — the whole workload against one
	// standalone server, timed, and its cache snapshotted for the
	// warm-start probe.
	soloCache := &cdg.VerifyCache{}
	solo, soloStop, err := startReplicaProc("solo", soloCache, p.cfg, nil)
	if err != nil {
		fmt.Fprintln(errw, "ebda-loadgen:", err)
		return 2
	}
	baseReqs := make([]genReq, len(items))
	for i, it := range items {
		baseReqs[i] = it.req
	}
	baseResults, baseWall := driveStream(client, solo.url, baseReqs, p.conc)
	var snapshot bytes.Buffer
	if _, err := cdg.SaveSnapshot(soloCache, &snapshot); err != nil {
		fmt.Fprintln(errw, "ebda-loadgen: snapshot:", err)
		soloStop()
		return 2
	}
	soloStop()
	fmt.Fprintf(errw, "ebda-loadgen: baseline %d requests in %.3fs (%d cache entries snapshotted)\n",
		len(baseReqs), baseWall, soloCache.Stats().Entries)

	// Phase 2: the replica ring. Same workload, partitioned by entry
	// replica, one timed phase per replica.
	procs, stopAll, err := startClusterProcs(names, ring, p.cfg)
	if err != nil {
		fmt.Fprintln(errw, "ebda-loadgen:", err)
		return 2
	}
	defer stopAll()

	streams := make(map[string][]genReq, len(names))
	for _, it := range items {
		streams[it.entry] = append(streams[it.entry], it.req)
	}
	bench := serve.ClusterBench{
		Kind:         serve.ClusterBenchKind,
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339), //ebda:allow detlint bench snapshots are stamped with real wall time by design
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		Seed:         p.seed,
		Replicas:     p.replicas,
		Designs:      p.designs,
		MisrouteRate: p.misroute,

		BaselineWallSeconds: baseWall,
	}
	if baseWall > 0 {
		bench.BaselineRPS = float64(len(baseReqs)) / baseWall
	}
	var aggLat []float64
	maxPhase := 0.0
	for _, proc := range procs {
		stream := streams[proc.name]
		results, wall := driveStream(client, proc.url, stream, p.conc)
		if wall > maxPhase {
			maxPhase = wall
		}
		rb := serve.ReplicaBench{Name: proc.name, Requests: len(stream), WallSeconds: wall}
		lat := make([]float64, 0, len(results))
		for _, r := range results {
			lat = append(lat, r.latencyMS)
			rb.Cache += r.cache
			rb.Computed += r.computed
			rb.Coalesced += r.coalesced
			rb.Peer += r.peer
			rb.Forwarded += r.forwarded
			switch {
			case r.status >= 500:
				bench.Status5xx++
			case r.status >= 400:
				bench.Status4xx++
			case r.status >= 200 && r.status < 300:
				bench.Status2xx++
			}
			bench.Requests++
		}
		aggLat = append(aggLat, lat...)
		if wall > 0 {
			rb.ThroughputRPS = float64(len(stream)) / wall
		}
		rb.P50Millis = serve.Quantile(lat, 0.50)
		rb.P99Millis = serve.Quantile(lat, 0.99)
		bench.PeerHits += rb.Peer
		bench.Forwards += rb.Forwarded
		bench.PerReplica = append(bench.PerReplica, rb)
		fmt.Fprintf(errw, "ebda-loadgen: phase %s: %d requests in %.3fs (peer %d, forwarded %d)\n",
			proc.name, len(stream), wall, rb.Peer, rb.Forwarded)
	}
	bench.ClusterWallSeconds = maxPhase
	if maxPhase > 0 {
		bench.AggregateRPS = float64(bench.Requests) / maxPhase
		bench.ScalingX = baseWall / maxPhase
	}
	if bench.Requests > 0 {
		bench.PeerHitRate = float64(bench.PeerHits) / float64(bench.Requests)
		bench.ForwardRate = float64(bench.Forwards) / float64(bench.Requests)
	}
	bench.AggP50Millis = serve.Quantile(aggLat, 0.50)
	bench.AggP99Millis = serve.Quantile(aggLat, 0.99)

	// Probes: the cluster's correctness contracts, checked regardless of
	// -smoke (they cost a handful of requests).
	probeFails := clusterProbes(client, errw, procs, ring, designs, deltas, &snapshot, p.cfg)

	if p.outPath != "" {
		f, err := os.Create(p.outPath)
		if err != nil {
			fmt.Fprintln(errw, "ebda-loadgen:", err)
			return 2
		}
		if err := bench.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(errw, "ebda-loadgen:", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(errw, "ebda-loadgen:", err)
			return 2
		}
		fmt.Fprintf(errw, "ebda-loadgen: cluster snapshot written to %s\n", p.outPath)
	}

	fmt.Fprintf(out, "cluster: %d replicas, %d requests, %d designs, misroute %.0f%%\n",
		bench.Replicas, bench.Requests, bench.Designs, bench.MisrouteRate*100)
	fmt.Fprintf(out, "baseline %.3fs (%.1f req/s)  cluster %.3fs modeled (%.1f req/s)  scaling_x %.2fx (modeled)\n",
		bench.BaselineWallSeconds, bench.BaselineRPS, bench.ClusterWallSeconds, bench.AggregateRPS, bench.ScalingX)
	fmt.Fprintf(out, "routing: peer hits %d (%.3f)  forwards %d (%.3f)  2xx %d  4xx %d  5xx %d\n",
		bench.PeerHits, bench.PeerHitRate, bench.Forwards, bench.ForwardRate,
		bench.Status2xx, bench.Status4xx, bench.Status5xx)
	fmt.Fprintf(out, "latency: agg p50 %.2fms  agg p99 %.2fms\n", bench.AggP50Millis, bench.AggP99Millis)

	// Baseline-phase sanity folds into smoke: the workload itself must
	// have been healthy for the comparison to mean anything.
	base5xx := 0
	for _, r := range baseResults {
		if r.status >= 500 {
			base5xx++
		}
	}

	if p.smoke {
		violations := probeFails
		fail := func(format string, args ...any) {
			violations++
			fmt.Fprintf(errw, "SMOKE FAIL: "+format+"\n", args...)
		}
		if base5xx != 0 {
			fail("%d baseline responses were 5xx, want 0", base5xx)
		}
		if bench.Status5xx != 0 {
			fail("%d cluster responses were 5xx, want 0", bench.Status5xx)
		}
		if bench.PeerHits < 1 {
			fail("no verdict was answered from a peer cache")
		}
		if bench.Forwards < 1 {
			fail("no request was forwarded to its owner")
		}
		if floor := 0.75 * float64(p.replicas); bench.ScalingX < floor {
			fail("modeled scaling %.2fx below the %.2fx floor (%d replicas)", bench.ScalingX, floor, p.replicas)
		}
		if violations > 0 {
			return 1
		}
		fmt.Fprintln(out, "smoke: all cluster invariants hold")
	} else if probeFails > 0 {
		fmt.Fprintf(errw, "ebda-loadgen: %d cluster probes failed (run with -smoke to gate)\n", probeFails)
	}
	return 0
}

// balancedDesigns draws distinct 8x8-mesh turn-subset designs (the 8
// possible 2D 90-degree turns give 255 non-empty subsets) in seeded
// order until every ring member owns exactly perReplica of them.
func balancedDesigns(seed uint64, ring *cluster.Ring, perReplica int) ([]clusterDesign, error) {
	turnNames := []string{"X+>Y+", "X+>Y-", "X->Y+", "X->Y-", "Y+>X+", "Y+>X-", "Y->X+", "Y->X-"}
	net := topology.NewMesh(8, 8)
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5bd1e995))
	masks := rng.Perm(255)

	buckets := make(map[string][]clusterDesign)
	filled := 0
	for _, m := range masks {
		mask := m + 1 // 1..255: never the empty turn set
		var parts []string
		for b := 0; b < len(turnNames); b++ {
			if mask&(1<<b) != 0 {
				parts = append(parts, turnNames[b])
			}
		}
		spec := strings.Join(parts, ",")
		key, err := turnsKey(net, spec)
		if err != nil {
			return nil, err
		}
		owner := ring.Owner(key)
		if len(buckets[owner]) >= perReplica {
			continue
		}
		body := fmt.Sprintf(`{"network":{"kind":"mesh","sizes":[8,8]},"turns":"%s"}`, spec)
		buckets[owner] = append(buckets[owner], clusterDesign{body: body, key: key, owner: owner})
		filled++
		if filled == perReplica*ring.Size() {
			break
		}
	}
	if filled < perReplica*ring.Size() {
		return nil, fmt.Errorf("only %d of %d designs balanced across the ring (raise -designs granularity)",
			filled, perReplica*ring.Size())
	}
	var designs []clusterDesign
	for _, name := range ring.Replicas() {
		designs = append(designs, buckets[name]...)
	}
	return designs, nil
}

// turnsKey computes the verify-cache identity of a turn-list design the
// same way the server's build path does.
func turnsKey(net *topology.Network, spec string) (uint64, error) {
	turns, err := core.ParseTurnList(spec)
	if err != nil {
		return 0, err
	}
	ts := core.NewTurnSet()
	for _, t := range turns {
		ts.Add(t.From, t.To, core.ByTheorem1)
	}
	vcs := cdg.VCConfigFor(net.Dims(), ts.Classes())
	key, _ := cdg.VerifyKey(net, vcs, ts)
	return key, nil
}

// deltaBaseBody is the design the delta requests perturb: the 8x8-mesh
// north-last chain.
const deltaBaseBody = `{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`

// deltaProbeSet builds a few single-link delta requests against a fixed
// base design, each with its precomputed delta-cache identity, so delta
// traffic routes through the ring like verify traffic does.
func deltaProbeSet(ring *cluster.Ring) ([]clusterDesign, error) {
	net := topology.NewMesh(8, 8)
	chain, err := core.ParseChain("PA[X+ X- Y-] -> PB[Y+]")
	if err != nil {
		return nil, err
	}
	ts := chain.Turns(core.DefaultTurnOptions)
	vcs := cdg.VCConfigFor(net.Dims(), chain.Channels())
	sites := []struct {
		x, y int
		dir  string
		d    channel.Dim
		sign channel.Sign
	}{
		{1, 1, "X+", 0, channel.Plus},
		{2, 3, "Y+", 1, channel.Plus},
		{4, 4, "X-", 0, channel.Minus},
		{5, 2, "Y-", 1, channel.Minus},
		{6, 5, "X+", 0, channel.Plus},
		{3, 6, "Y+", 1, channel.Plus},
	}
	var out []clusterDesign
	for _, s := range sites {
		link, ok := net.FindLink(net.ID(topology.Coord{s.x, s.y}), s.d, s.sign)
		if !ok {
			return nil, fmt.Errorf("delta probe link (%d,%d)%s missing", s.x, s.y, s.dir)
		}
		diff := cdg.Diff{RemoveLinks: []topology.Link{link}}
		key, _ := cdg.DeltaKey(net, vcs, ts, diff)
		body := fmt.Sprintf(`{"base":%s,"remove_links":[{"at":[%d,%d],"dir":"%s"}]}`,
			deltaBaseBody, s.x, s.y, s.dir)
		out = append(out, clusterDesign{body: body, key: key, owner: ring.Owner(key)})
	}
	return out, nil
}

// workItem is one workload request with its chosen entry replica.
type workItem struct {
	req   genReq
	entry string
}

// clusterWorkload builds the seeded request stream: ~92% design
// verifications and ~8% single-link deltas, each routed to its key's
// owner except for a deliberate misroute fraction.
func clusterWorkload(seed uint64, n int, misroute float64, names []string, designs, deltas []clusterDesign) []workItem {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x2545f491))
	items := make([]workItem, 0, n)
	for i := 0; i < n; i++ {
		var d clusterDesign
		path := "/v1/verify"
		if rng.Intn(100) < 8 {
			d = deltas[rng.Intn(len(deltas))]
			path = "/v1/verify/delta"
		} else {
			d = designs[rng.Intn(len(designs))]
		}
		entry := d.owner
		if rng.Float64() < misroute {
			// A deliberate misroute: any replica other than the owner.
			for {
				entry = names[rng.Intn(len(names))]
				if entry != d.owner {
					break
				}
			}
		}
		items = append(items, workItem{req: genReq{path: path, body: d.body}, entry: entry})
	}
	return items
}

// startReplicaProc starts one in-process server with a private cache on
// a loopback port, returning it with its stop function.
func startReplicaProc(name string, cache *cdg.VerifyCache, cfg serve.Config, cc *serve.ClusterConfig) (*replicaProc, func(), error) {
	cfg.Cluster = cc
	srv := serve.NewReplica(cfg, cache)
	mux := http.NewServeMux()
	srv.Register(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go http.Serve(ln, mux)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ln.Close()
	}
	return &replicaProc{name: name, cache: cache, srv: srv, url: "http://" + ln.Addr().String()}, stop, nil
}

// startClusterProcs starts every ring member. Listeners are bound
// before any server is constructed so each replica's config can name
// all peer URLs.
func startClusterProcs(names []string, ring *cluster.Ring, cfg serve.Config) ([]*replicaProc, func(), error) {
	lns := make([]net.Listener, len(names))
	urls := make(map[string]string, len(names))
	for i, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, prev := range lns[:i] {
				prev.Close()
			}
			return nil, nil, err
		}
		lns[i] = ln
		urls[name] = "http://" + ln.Addr().String()
	}
	procs := make([]*replicaProc, len(names))
	var stops []func()
	for i, name := range names {
		peers := make(map[string]string, len(names)-1)
		for other, u := range urls {
			if other != name {
				peers[other] = u
			}
		}
		cache := &cdg.VerifyCache{}
		c := cfg
		c.Cluster = &serve.ClusterConfig{Self: name, Ring: ring, Peers: peers}
		srv := serve.NewReplica(c, cache)
		mux := http.NewServeMux()
		srv.Register(mux)
		go http.Serve(lns[i], mux)
		procs[i] = &replicaProc{name: name, cache: cache, srv: srv, url: urls[name]}
		stops = append(stops, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		stops = append(stops, func() { lns[i].Close() })
	}
	var once sync.Once
	stopAll := func() {
		once.Do(func() {
			for _, stop := range stops {
				stop()
			}
		})
	}
	return procs, stopAll, nil
}

// driveStream runs one request stream through conc client workers and
// returns per-request results with the phase wall.
func driveStream(client *http.Client, baseURL string, reqs []genReq, conc int) ([]result, float64) {
	results := make([]result, len(reqs))
	start := time.Now() //ebda:allow detlint the load generator measures wall latency by design
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = doReq(client, baseURL, reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results, time.Since(start).Seconds() //ebda:allow detlint the load generator measures wall latency by design
}

// clusterProbes asserts the cluster's correctness contracts after the
// workload: byte-identical verdicts from every replica, single-hop loop
// protection, snapshot warm starts and peer-served cold edges. It
// returns the number of failed probes, logging each failure.
func clusterProbes(client *http.Client, errw io.Writer, procs []*replicaProc, ring *cluster.Ring,
	designs, deltas []clusterDesign, snapshot *bytes.Buffer, cfg serve.Config) int {
	fails := 0
	fail := func(format string, args ...any) {
		fails++
		fmt.Fprintf(errw, "PROBE FAIL: "+format+"\n", args...)
	}
	urls := make(map[string]string, len(procs))
	for _, proc := range procs {
		urls[proc.name] = proc.url
	}

	// Probe 1: byte-identical verdicts regardless of the answering
	// replica, for a spread of workload designs (one owned by each
	// member) and one delta.
	probeSet := make([]clusterDesign, 0, ring.Size()+1)
	seen := make(map[string]bool)
	for _, d := range designs {
		if !seen[d.owner] {
			seen[d.owner] = true
			probeSet = append(probeSet, d)
		}
	}
	for _, d := range probeSet {
		var canon []string
		for _, proc := range procs {
			res, body, err := postRaw(client, proc.url+"/v1/verify", d.body)
			if err != nil || res != http.StatusOK {
				fail("replica %s: verify probe status %d err %v", proc.name, res, err)
				continue
			}
			var vr serve.VerifyResponse
			if err := json.Unmarshal(body, &vr); err != nil {
				fail("replica %s: verify probe decode: %v", proc.name, err)
				continue
			}
			vr.Provenance = ""
			cb, _ := json.Marshal(vr)
			canon = append(canon, string(cb))
		}
		sort.Strings(canon)
		if len(canon) > 0 && canon[0] != canon[len(canon)-1] {
			fail("verdicts for a design diverged across replicas:\n%s\nvs\n%s", canon[0], canon[len(canon)-1])
		}
	}
	for _, proc := range procs {
		res, body, err := postRaw(client, proc.url+"/v1/verify/delta", deltas[0].body)
		if err != nil || res != http.StatusOK {
			fail("replica %s: delta probe status %d err %v", proc.name, res, err)
			continue
		}
		var dr serve.DeltaResponse
		if err := json.Unmarshal(body, &dr); err != nil {
			fail("replica %s: delta probe decode: %v", proc.name, err)
		}
	}

	// Probe 2: single-hop loop protection. A request pre-marked with the
	// forward header at a non-owner must be served locally (computed on
	// a fresh design: nothing has cached it).
	loopSpec := "X+>Y+,Y->X-"
	loopNet := topology.NewMesh(9, 9)
	loopKey, err := turnsKey(loopNet, loopSpec)
	if err != nil {
		fail("loop probe key: %v", err)
	} else {
		loopOwner := ring.Owner(loopKey)
		var nonOwner *replicaProc
		for _, proc := range procs {
			if proc.name != loopOwner {
				nonOwner = proc
				break
			}
		}
		body := fmt.Sprintf(`{"network":{"kind":"mesh","sizes":[9,9]},"turns":"%s"}`, loopSpec)
		req, _ := http.NewRequest(http.MethodPost, nonOwner.url+"/v1/verify", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(serve.ForwardHeader, "probe")
		resp, err := client.Do(req)
		if err != nil {
			fail("loop probe transport: %v", err)
		} else {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var vr serve.VerifyResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &vr) != nil {
				fail("loop probe status %d: %s", resp.StatusCode, raw)
			} else if vr.Provenance != "computed" {
				fail("loop probe provenance %q, want computed (the marked request must not hop again)", vr.Provenance)
			}
		}
	}

	// Probe 3: snapshot warm start. A standalone replica loaded from the
	// baseline snapshot answers its first hot-key request from cache.
	warmCache := &cdg.VerifyCache{}
	if _, err := cdg.LoadSnapshot(warmCache, bytes.NewReader(snapshot.Bytes())); err != nil {
		fail("warm-start load: %v", err)
	} else {
		warm, warmStop, err := startReplicaProc("warm", warmCache, cfg, nil)
		if err != nil {
			fail("warm-start boot: %v", err)
		} else {
			res, body, err := postRaw(client, warm.url+"/v1/verify", designs[0].body)
			var vr serve.VerifyResponse
			if err != nil || res != http.StatusOK || json.Unmarshal(body, &vr) != nil {
				fail("warm-start probe status %d err %v", res, err)
			} else if vr.Provenance != "cache" {
				fail("warm-started replica's first hot-key provenance %q, want cache", vr.Provenance)
			}
			warmStop()
		}
	}

	// Probe 4: a cold edge router (ring non-member, empty cache) serves
	// hot keys from peers, never by computing.
	edgePeers := make(map[string]string, len(urls))
	for name, u := range urls {
		edgePeers[name] = u
	}
	edgeCfg := &serve.ClusterConfig{Self: "edge", Ring: ring, Peers: edgePeers}
	edgeCache := &cdg.VerifyCache{}
	edge, edgeStop, err := startReplicaProc("edge", edgeCache, cfg, edgeCfg)
	if err != nil {
		fail("edge boot: %v", err)
	} else {
		res, body, err := postRaw(client, edge.url+"/v1/verify", designs[0].body)
		var vr serve.VerifyResponse
		if err != nil || res != http.StatusOK || json.Unmarshal(body, &vr) != nil {
			fail("edge probe status %d err %v", res, err)
		} else if vr.Provenance != "peer" {
			fail("cold edge replica's hot-key provenance %q, want peer", vr.Provenance)
		}
		edgeStop()
	}
	return fails
}

// postRaw posts a body and returns status + response bytes.
func postRaw(client *http.Client, url, body string) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}
