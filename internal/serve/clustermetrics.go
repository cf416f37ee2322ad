package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"

	"ebda/internal/obs"
	"ebda/internal/obs/trace"
)

// Cluster-wide metrics aggregation. Every replica serves its own
// snapshot at GET /v1/peer/metrics (a registry read — it bypasses the
// admission queue and keeps answering while draining, like the peer
// cache probe). GET /v1/cluster/metrics turns any replica into an
// aggregation point: it fans out to every other ring member, folds the
// per-replica snapshots into one fleet view with the snapshot algebra's
// Merge, and reports which members it could not reach — a partial merge
// is labelled, never silent. Peers are visited in sorted name order and
// the per-replica section is keyed by name, so two aggregations over
// the same counter state render byte-identically regardless of which
// replica answered.

// ClusterMetricsResponse is the fleet view one aggregation produced.
type ClusterMetricsResponse struct {
	// Replicas lists the members whose snapshots fed the merge (always
	// including the answering replica), sorted by name.
	Replicas []string `json:"replicas"`
	// Unreachable lists ring members whose snapshot fetch failed; their
	// series are missing from Merged.
	Unreachable []string `json:"unreachable,omitempty"`
	// Merged is the fold of every reachable replica's snapshot: counters
	// and gauges sum, histograms combine, phase maxima take the fleet
	// maximum.
	Merged obs.Snapshot `json:"merged"`
	// PerReplica carries each contributing replica's own snapshot — the
	// provenance of every merged series. encoding/json renders map keys
	// sorted, so the response stays deterministic.
	PerReplica map[string]obs.Snapshot `json:"per_replica"`
}

// handlePeerMetrics serves this replica's own snapshot.
func (s *Server) handlePeerMetrics(w http.ResponseWriter, r *http.Request) {
	obsReqPeerMetrics.Inc()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if err := s.cfg.Metrics().WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// serveClusterMetrics fans out to the ring and answers the merged
// fleet view. Outside cluster mode the "fleet" is this process alone.
func (s *Server) serveClusterMetrics(ctx context.Context, w http.ResponseWriter, r *http.Request) (any, string, error) {
	self := "local"
	if s.cluster != nil {
		self = s.cluster.self
	}
	resp := &ClusterMetricsResponse{
		PerReplica: make(map[string]obs.Snapshot),
	}
	own := s.cfg.Metrics()
	resp.Replicas = append(resp.Replicas, self)
	resp.PerReplica[self] = own
	merged := own

	if s.cluster != nil {
		members := append([]string(nil), s.cluster.ring.Replicas()...)
		sort.Strings(members)
		for _, name := range members {
			if name == self {
				continue
			}
			snap, err := s.cluster.fetchMetrics(ctx, name)
			if err != nil {
				obsClusterMetricsUnreachable.Inc()
				resp.Unreachable = append(resp.Unreachable, name)
				continue
			}
			resp.Replicas = append(resp.Replicas, name)
			resp.PerReplica[name] = snap
			merged = merged.Merge(snap)
		}
		sort.Strings(resp.Replicas)
	}
	resp.Merged = merged
	return resp, "", nil
}

// fetchMetrics pulls one peer's snapshot.
func (cp *clusterPeers) fetchMetrics(ctx context.Context, name string) (obs.Snapshot, error) {
	base := cp.peers[name]
	if base == "" {
		return obs.Snapshot{}, fmt.Errorf("serve: no peer URL for %q", name)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/peer/metrics", nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	hsp := trace.FromContext(ctx).StartSpan("metrics.fetch")
	hsp.SetStr("replica", name)
	defer hsp.End()
	if h := hsp.Header(); h != "" {
		req.Header.Set(trace.Header, h)
	}
	resp, err := cp.client.Do(req)
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, MaxBodyBytes))
		return obs.Snapshot{}, fmt.Errorf("serve: peer metrics at %q returned %d", name, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
	if err != nil {
		return obs.Snapshot{}, err
	}
	return obs.ParseSnapshot(body)
}
