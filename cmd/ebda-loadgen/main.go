// Command ebda-loadgen benchmarks the shard router. It starts an
// in-process replica cluster (each replica the full ebda-serve pipeline
// with a private verify cache), drives a seeded owner-routed workload
// with deliberate misroutes through it, and writes the cluster perf
// snapshot (BENCH_cluster.json: modeled scaling, peer-hit and forward
// rates, per-replica latency) that ebda-benchdiff compares across
// commits. Single-server serving is measured end to end by the bench/
// harness and gated by TestServeSmoke in internal/serve.
//
// With -smoke it asserts the cluster invariants and exits 1 on any
// violation: zero 5xx, both routing paths (peer cache lookup and owner
// forwarding) exercised, byte-identical verdicts from every replica,
// single-hop forward-loop protection, snapshot warm starts answering
// from cache, a cold edge router answering from peers, and modeled
// scaling at or above 0.75x per replica.
//
// Usage examples:
//
//	ebda-loadgen -replicas 4 -smoke -out BENCH_cluster.json
//	ebda-loadgen -replicas 8 -designs 128 -misroute 0.2 -out ""
//
// Exit status: 0 on success, 1 on a smoke violation, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"ebda/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// genReq is one pre-generated request of the deterministic workload.
type genReq struct {
	path string
	body string
}

// result is one completed request.
type result struct {
	status    int
	latencyMS float64
	// provenance tallies across the verdict the response carried: peer
	// (a non-owner answered from the owner's cache) and forwarded
	// (proxied to the owner) are the cluster's routing paths.
	cache, computed, coalesced int
	peer, forwarded            int
}

func run(argv []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("ebda-loadgen", flag.ContinueOnError)
	fs.SetOutput(errw)
	seed := fs.Uint64("seed", 1, "workload seed")
	requests := fs.Int("requests", 800, "requests in the workload")
	conc := fs.Int("conc", 8, "concurrent client workers per phase")
	outPath := fs.String("out", "BENCH_cluster.json", "cluster snapshot path (empty disables)")
	smoke := fs.Bool("smoke", false, "assert cluster invariants; exit 1 on violation")
	workers := fs.Int("workers", 0, "replica worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "replica queue depth (0 = default)")
	timeout := fs.Duration("timeout", 0, "replica per-request deadline (0 = default)")
	replicas := fs.Int("replicas", 4, "ring member count")
	designs := fs.Int("designs", 64, "distinct designs in the workload (balanced across replicas)")
	misroute := fs.Float64("misroute", 0.10, "fraction of requests sent to a non-owner")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(errw, "usage: ebda-loadgen [-replicas 4] [-smoke] [-out BENCH_cluster.json]")
		return 2
	}
	if *requests < 1 || *conc < 1 {
		fmt.Fprintln(errw, "ebda-loadgen: -requests and -conc must be positive")
		return 2
	}
	return runCluster(clusterParams{
		seed:     *seed,
		requests: *requests,
		conc:     *conc,
		replicas: *replicas,
		designs:  *designs,
		misroute: *misroute,
		outPath:  *outPath,
		smoke:    *smoke,
		cfg:      serve.Config{Workers: *workers, QueueDepth: *queue, Timeout: *timeout},
	}, out, errw)
}

// doReq posts one request and tallies the provenance of its verdict.
func doReq(client *http.Client, baseURL string, r genReq) result {
	t0 := time.Now() //ebda:allow detlint the load generator measures wall latency by design
	resp, err := client.Post(baseURL+r.path, "application/json", strings.NewReader(r.body))
	if err != nil {
		// Transport failure counts as a 5xx: the server broke the
		// connection contract.
		return result{status: 599}
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := result{
		status:    resp.StatusCode,
		latencyMS: time.Since(t0).Seconds() * 1000, //ebda:allow detlint the load generator measures wall latency by design
	}
	if resp.StatusCode != http.StatusOK {
		return res
	}
	// /v1/verify and /v1/verify/delta responses both carry provenance.
	var v struct {
		Provenance string `json:"provenance"`
	}
	if json.Unmarshal(body, &v) == nil {
		res.tally(v.Provenance)
	}
	return res
}

func (r *result) tally(provenance string) {
	switch provenance {
	case "cache":
		r.cache++
	case "computed":
		r.computed++
	case "coalesced":
		r.coalesced++
	case "peer":
		r.peer++
	case "forwarded":
		r.forwarded++
	}
}
