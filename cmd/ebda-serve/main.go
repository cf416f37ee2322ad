// Command ebda-serve runs the verification engine as an HTTP JSON
// service: POST /v1/verify (one design's deadlock-freedom verdict),
// POST /v1/design (the verified Algorithm 1/2 option family for a VC
// budget), POST /v1/batch (up to 64 designs per call), POST
// /v1/verify/delta (re-verification of an edited design on a retained base)
// and POST /v1/verify/graph (multi-mode verdicts — loop, liveness,
// escape, subrel — over an arbitrary inline channel dependence graph
// in graphio's structured or constellation text form). The same mux
// serves the introspection set — /metrics, /debug/vars, /debug/pprof,
// /debug/traces, /healthz and /readyz — so one port carries both the
// API and its observability.
//
// Every request records a span tree; -trace-sample keeps every Nth one
// in the /debug/traces flight-recorder ring, and anything slower than
// -trace-slow (or answered 5xx) lands in the always-capture slow lane.
// In cluster mode peer hops carry X-Ebda-Trace, so one trace shows
// edge-replica and owner-replica causality; GET /v1/cluster/metrics
// merges every replica's /metrics view into one fleet snapshot.
//
// Admission is a bounded queue in front of a fixed worker pool: a full
// queue answers 429, a draining server answers 503, and a request past
// its deadline answers 504. Identical concurrent requests coalesce onto
// one computation, and verdicts are memoized in the engine's verify
// cache. SIGINT/SIGTERM starts a graceful drain: /readyz flips to 503
// immediately, in-flight verifications finish, then the listener stops.
//
// Cluster mode shards the verify-cache keyspace across replicas with a
// deterministic consistent-hash ring: -name sets this replica's ring
// name and -peers names the others ("r1=host:port,r2=host:port"). A
// replica that does not own a request's cache key answers from its own
// cache, the owner's cache (one GET), or by proxying to the owner
// (-no-forward disables the proxy step). -snapshot-load warm-starts the
// verify cache from a file before serving; -snapshot-save writes the
// cache back after a clean drain, so a rolling restart keeps its
// memoized verdicts.
//
// Usage examples:
//
//	ebda-serve -addr :8423
//	ebda-serve -addr 127.0.0.1:0 -workers 4 -queue 128 -timeout 5s
//	ebda-serve -addr :8423 -name r0 -peers r1=127.0.0.1:8424 -snapshot-load warm.snap -snapshot-save warm.snap
//	curl -s localhost:8423/v1/verify -d '{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/cluster"
	"ebda/internal/obs"
	"ebda/internal/obs/obshttp"
	"ebda/internal/serve"
)

// parsePeers parses "name=host:port,name=host:port" into a URL map.
func parsePeers(spec string) (map[string]string, error) {
	peers := make(map[string]string)
	if spec == "" {
		return peers, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("malformed peer %q (want name=host:port)", part)
		}
		if peers[name] != "" {
			return nil, fmt.Errorf("duplicate peer %q", name)
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		peers[name] = addr
	}
	return peers, nil
}

// clusterConfig assembles the ring from -name and -peers: the ring
// membership is self plus every named peer, so all replicas given the
// same full member list build the same table.
func clusterConfig(self string, peers map[string]string, noForward bool) (*serve.ClusterConfig, error) {
	members := make([]string, 0, len(peers)+1)
	members = append(members, self)
	for name := range peers {
		if name == self {
			return nil, fmt.Errorf("-peers names this replica (%q)", self)
		}
		members = append(members, name)
	}
	sort.Strings(members)
	ring, err := cluster.New(members)
	if err != nil {
		return nil, err
	}
	cfg := &serve.ClusterConfig{Self: self, Ring: ring, Peers: peers, NoForward: noForward}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses argv, serves until SIGINT
// or SIGTERM, drains, and returns the process exit status (0 after a
// clean drain, 1 when the drain or the snapshot save fails, 2 on usage
// and startup errors).
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebda-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8423", "listen address (host:port; :0 picks a free port)")
	workers := fs.Int("workers", 0, "verification worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth (0 = default 64)")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = default 10s)")
	drain := fs.Duration("drain", 30*time.Second, "graceful drain budget after SIGTERM/SIGINT")
	name := fs.String("name", "", "replica name in the cluster ring (empty = single-process mode)")
	peersSpec := fs.String("peers", "", "comma-separated peer replicas, name=host:port each")
	noForward := fs.Bool("no-forward", false, "cluster mode: probe peer caches but never proxy compute")
	snapLoad := fs.String("snapshot-load", "", "warm-start the verify cache from this snapshot file")
	snapSave := fs.String("snapshot-save", "", "write a verify-cache snapshot here after a clean drain")
	traceSample := fs.Int("trace-sample", 0, "retain every Nth request trace in /debug/traces (0 = default 16, negative = slow/error lane only)")
	traceSlow := fs.Duration("trace-slow", 0, "always capture traces at least this slow (0 = default 250ms, negative disables latency capture)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	cfg := serve.Config{
		Workers:     *workers,
		QueueDepth:  *queue,
		Timeout:     *timeout,
		TraceSample: *traceSample,
		TraceSlow:   *traceSlow,
	}
	if *name != "" {
		peers, err := parsePeers(*peersSpec)
		if err != nil {
			fmt.Fprintln(stderr, "ebda-serve: -peers:", err)
			return 2
		}
		cc, err := clusterConfig(*name, peers, *noForward)
		if err != nil {
			fmt.Fprintln(stderr, "ebda-serve: cluster:", err)
			return 2
		}
		cfg.Cluster = cc
		fmt.Fprintf(stderr, "ebda-serve: %s joining %s (fingerprint %x)\n",
			*name, cc.Ring, cc.Ring.Fingerprint())
	} else if *peersSpec != "" {
		fmt.Fprintln(stderr, "ebda-serve: -peers requires -name")
		return 2
	}

	// Warm-start before the listener exists: the first request already
	// sees the snapshot's verdicts.
	if *snapLoad != "" {
		f, err := os.Open(*snapLoad)
		if err != nil {
			fmt.Fprintln(stderr, "ebda-serve: snapshot-load:", err)
			return 2
		}
		n, err := cdg.LoadSnapshot(cdg.DefaultCache, f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "ebda-serve: snapshot-load:", err)
			return 2
		}
		fmt.Fprintf(stderr, "ebda-serve: warm-started %d cache entries from %s\n", n, *snapLoad)
	}

	srv := serve.New(cfg)
	mux := obshttp.Mux(obs.Default, srv.Ready)
	srv.Register(mux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "ebda-serve:", err)
		return 2
	}
	// Register for the drain signals before announcing readiness: a
	// SIGTERM sent as soon as the listening line appears must drain, not
	// kill the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	// The listening line is the readiness contract for scripts and
	// supervisors, which wait for it before sending traffic.
	fmt.Fprintf(stdout, "ebda-serve: listening on %s\n", ln.Addr())

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "ebda-serve:", err)
		return 2
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintln(stderr, "ebda-serve: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Order matters: flip the server to draining first so /readyz
	// answers 503 (load balancers stop routing) while queued work
	// finishes, then stop the HTTP listener once handlers are done.
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "ebda-serve: drain:", err)
		httpSrv.Close()
		return 1
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "ebda-serve: shutdown:", err)
		return 1
	}
	// Snapshot only after a clean drain: every admitted verification has
	// finished, so the file captures a consistent verdict set.
	if *snapSave != "" {
		f, err := os.Create(*snapSave)
		if err != nil {
			fmt.Fprintln(stderr, "ebda-serve: snapshot-save:", err)
			return 1
		}
		n, err := cdg.SaveSnapshot(cdg.DefaultCache, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "ebda-serve: snapshot-save:", err)
			return 1
		}
		fmt.Fprintf(stderr, "ebda-serve: saved %d cache entries to %s\n", n, *snapSave)
	}
	fmt.Fprintln(stderr, "ebda-serve: drained cleanly")
	return 0
}
