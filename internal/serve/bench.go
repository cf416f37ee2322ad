package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Quantile returns the q-quantile (0..1) of latencies in milliseconds
// using the nearest-rank method, 0 for an empty sample. The input is
// sorted in place.
func Quantile(latenciesMS []float64, q float64) float64 {
	if len(latenciesMS) == 0 {
		return 0
	}
	sort.Float64s(latenciesMS)
	rank := int(q*float64(len(latenciesMS))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(latenciesMS) {
		rank = len(latenciesMS) - 1
	}
	return latenciesMS[rank]
}

// ClusterBenchKind is the Kind value of cluster snapshots
// (BENCH_cluster.json).
const ClusterBenchKind = "cluster"

// ReplicaBench is one replica's share of a cluster run.
type ReplicaBench struct {
	Name          string  `json:"name"`
	Requests      int     `json:"requests"`
	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Millis     float64 `json:"p50_ms"`
	P99Millis     float64 `json:"p99_ms"`

	Cache     int `json:"verdicts_cache"`
	Computed  int `json:"verdicts_computed"`
	Coalesced int `json:"verdicts_coalesced"`
	Peer      int `json:"verdicts_peer"`
	Forwarded int `json:"verdicts_forwarded"`
}

// ClusterBench is the merged snapshot ebda-loadgen writes
// (BENCH_cluster.json): a single-replica baseline over the same
// workload, the per-replica shares of the N-replica run, and the
// modeled aggregate. The harness runs replicas of one process on one
// machine, so the cluster wall is modeled, not measured: the workload
// is driven in per-entry-replica phases and ClusterWallSeconds is the
// slowest phase — the wall an N-machine cluster would observe, since
// the phases are independent request streams. ScalingX is therefore a
// measure of shard balance plus routing overhead (peer probes,
// forwards), not of host parallelism.
type ClusterBench struct {
	Kind        string `json:"kind"` // always "cluster"
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	Seed        uint64 `json:"seed"`

	Replicas int `json:"replicas"`
	Requests int `json:"requests"`
	Designs  int `json:"designs"`
	// MisrouteRate is the fraction of requests the driver deliberately
	// sent to a non-owner to exercise the peer-lookup and forward paths.
	MisrouteRate float64 `json:"misroute_rate"`

	BaselineWallSeconds float64 `json:"baseline_wall_seconds"`
	BaselineRPS         float64 `json:"baseline_rps"`
	ClusterWallSeconds  float64 `json:"cluster_wall_seconds"`
	AggregateRPS        float64 `json:"aggregate_rps"`
	// ScalingX is BaselineWallSeconds / ClusterWallSeconds: how much
	// faster the modeled N-replica cluster finishes the same workload.
	ScalingX float64 `json:"scaling_x"`

	PeerHits    int     `json:"peer_hits"`
	Forwards    int     `json:"forwards"`
	PeerHitRate float64 `json:"peer_hit_rate"`
	ForwardRate float64 `json:"forward_rate"`

	Status2xx int `json:"status_2xx"`
	Status4xx int `json:"status_4xx"`
	Status5xx int `json:"status_5xx"`

	AggP50Millis float64 `json:"agg_p50_ms"`
	AggP99Millis float64 `json:"agg_p99_ms"`

	PerReplica []ReplicaBench `json:"per_replica"`
}

// WriteJSON renders the cluster snapshot as indented JSON.
func (b ClusterBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadClusterBench parses a cluster snapshot, rejecting other kinds.
func ReadClusterBench(data []byte) (ClusterBench, error) {
	var b ClusterBench
	if err := json.Unmarshal(data, &b); err != nil {
		return ClusterBench{}, err
	}
	if b.Kind != ClusterBenchKind {
		return ClusterBench{}, fmt.Errorf("snapshot kind %q is not %q", b.Kind, ClusterBenchKind)
	}
	return b, nil
}
