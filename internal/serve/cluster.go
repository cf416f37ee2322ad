package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ebda/internal/cdg"
	"ebda/internal/cluster"
	"ebda/internal/obs/trace"
)

// Cluster mode shards the verify-cache keyspace across replicas: every
// replica builds the same cluster.Ring, so all of them agree — with no
// runtime coordination — on which replica owns which cache key. A
// replica that receives a request for a key it does not own answers in
// cost order:
//
//  1. its own cache (a prior forward or snapshot may have seeded it),
//  2. a peer cache probe at the owner (GET /v1/peer/lookup/{key}),
//  3. a proxied request to the owner (provenance "forwarded"), so the
//     verdict is computed and memoized where the keyspace says it lives,
//  4. local compute, the degraded path when the owner is unreachable
//     (the cluster keeps answering through partitions; the stray entry
//     is wasted cache space, never a wrong verdict).
//
// Forwarded requests carry the ForwardHeader; a replica that sees it
// always serves locally, so a misrouted request makes at most one hop
// regardless of how the rings disagree. Peer lookups are pure cache
// probes: they bypass the admission queue (they cost a map read, not a
// verification) and keep answering while the replica drains, so a
// draining owner still shares its memoized verdicts with the replicas
// taking over its traffic.
//
// Only /v1/verify and /v1/verify/delta route through the ring — they
// are keyed by a single cache identity. /v1/batch and /v1/design fan
// out over many keys per request and stay local; their per-verdict
// cache traffic is not worth a network hop per item.

// ForwardHeader marks a request proxied by a non-owner replica. Its
// value is the forwarding replica's name; any value disables further
// forwarding at the receiver (single-hop loop protection).
const ForwardHeader = "X-Ebda-Forwarded"

// Forwarded-path provenance values: "peer" answered from the owner's
// cache via a peer lookup, "forwarded" proxied the whole request to the
// owner.
const (
	provPeer      = "peer"
	provForwarded = "forwarded"
)

// ClusterConfig wires a server into a replica ring.
type ClusterConfig struct {
	// Self is this replica's name. It need not be a ring member: a
	// non-member owns no keys and acts as a pure edge router.
	Self string
	// Ring is the shared slot table. Every replica must build it from
	// the same member list (cluster.Ring.Fingerprint asserts agreement).
	Ring *cluster.Ring
	// Peers maps every ring member except Self to a base URL
	// ("http://host:port"). Members without a URL cannot be probed or
	// forwarded to, so validation rejects the gap.
	Peers map[string]string
	// NoForward disables step 3: a non-owner that misses its cache and
	// the owner's cache computes locally instead of proxying.
	NoForward bool
	// Client issues peer lookups and forwards (default: a plain
	// http.Client; per-request contexts bound every call).
	Client *http.Client
}

// Validate checks the config against the ring: a non-nil ring and a
// peer URL for every member other than Self.
func (c *ClusterConfig) Validate() error {
	if c.Self == "" {
		return errors.New("serve: cluster config needs a replica name")
	}
	if c.Ring == nil {
		return errors.New("serve: cluster config needs a ring")
	}
	for _, name := range c.Ring.Replicas() {
		if name == c.Self {
			continue
		}
		if c.Peers[name] == "" {
			return fmt.Errorf("serve: ring member %q has no peer URL", name)
		}
	}
	return nil
}

// clusterPeers is the runtime routing state built from a ClusterConfig.
type clusterPeers struct {
	self      string
	ring      *cluster.Ring
	peers     map[string]string
	noForward bool
	client    *http.Client
}

func newClusterPeers(cfg *ClusterConfig) *clusterPeers {
	if err := cfg.Validate(); err != nil {
		panic(err) // constructor contract: callers validate first
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	peers := make(map[string]string, len(cfg.Peers))
	for name, url := range cfg.Peers {
		peers[name] = url
	}
	obsClusterReplicas.Set(int64(cfg.Ring.Size()))
	return &clusterPeers{
		self:      cfg.Self,
		ring:      cfg.Ring,
		peers:     peers,
		noForward: cfg.NoForward,
		client:    client,
	}
}

// PeerLookupResponse is the peer cache probe result. Found=false (with
// a 404) means the owner has not memoized the key; everything else
// mirrors the owner's cached report. Cycle is pre-formatted — the probe
// never re-materializes an engine report on the asking side.
type PeerLookupResponse struct {
	Found    bool   `json:"found"`
	Network  string `json:"network,omitempty"`
	Channels int    `json:"channels,omitempty"`
	Edges    int    `json:"edges,omitempty"`
	Acyclic  bool   `json:"acyclic"`
	Cycle    string `json:"cycle,omitempty"`
}

// handlePeerLookup serves GET /v1/peer/lookup/{key}?check=<hex>: a pure
// probe of this replica's verify cache by raw dual-hash identity. It
// submits nothing to the admission queue and ignores the drain state —
// a map read is always affordable, and a draining owner sharing its
// cache is exactly what lets peers absorb its keyspace.
func (s *Server) handlePeerLookup(w http.ResponseWriter, r *http.Request) {
	obsReqPeerLookup.Inc()
	t, sw, r := s.startTrace(w, r, "peer.lookup")
	defer func() { t.Finish(sw.status) }()
	w = sw
	key, err := strconv.ParseUint(r.PathValue("key"), 16, 64)
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, "key is not a 64-bit hex value")
		return
	}
	check, err := strconv.ParseUint(r.URL.Query().Get("check"), 16, 64)
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, "check query parameter is not a 64-bit hex value")
		return
	}
	lsp := trace.FromContext(r.Context()).StartSpan("cache.lookup")
	rep, ok := s.cache.Lookup(key, check)
	if !ok {
		lsp.SetInt("hit", 0)
		lsp.End()
		writeJSON(w, http.StatusNotFound, &PeerLookupResponse{Found: false})
		return
	}
	lsp.SetInt("hit", 1)
	lsp.End()
	obsPeerLookupHits.Inc()
	writeJSON(w, http.StatusOK, verdictFields(rep))
}

// lookup probes the owner's cache for a key. A nil response with a nil
// error means a clean miss (owner answered 404); transport and decode
// failures return the error.
func (cp *clusterPeers) lookup(ctx context.Context, owner string, key, check uint64) (*PeerLookupResponse, error) {
	base := cp.peers[owner]
	if base == "" {
		return nil, fmt.Errorf("serve: no peer URL for %q", owner)
	}
	url := base + "/v1/peer/lookup/" + strconv.FormatUint(key, 16) +
		"?check=" + strconv.FormatUint(check, 16)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	hsp := trace.FromContext(ctx).StartSpan("cluster.lookup")
	hsp.SetStr("owner", owner)
	defer hsp.End()
	if h := hsp.Header(); h != "" {
		req.Header.Set(trace.Header, h)
	}
	obsClusterPeerProbes.Inc()
	resp, err := cp.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var pl PeerLookupResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, MaxBodyBytes)).Decode(&pl); err != nil {
			return nil, err
		}
		if !pl.Found {
			return nil, nil
		}
		obsClusterPeerHits.Inc()
		return &pl, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, MaxBodyBytes))
		return nil, nil
	default:
		return nil, fmt.Errorf("serve: peer lookup at %q returned %d", owner, resp.StatusCode)
	}
}

// forward proxies a request body to the owner, marked with the
// ForwardHeader so the owner serves it locally. It returns the owner's
// status and body verbatim; the caller rewrites provenance on success.
func (cp *clusterPeers) forward(ctx context.Context, owner, path string, body []byte) (int, []byte, error) {
	base := cp.peers[owner]
	if base == "" {
		return 0, nil, fmt.Errorf("serve: no peer URL for %q", owner)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, cp.self)
	hsp := trace.FromContext(ctx).StartSpan("cluster.forward")
	hsp.SetStr("owner", owner)
	defer hsp.End()
	if h := hsp.Header(); h != "" {
		req.Header.Set(trace.Header, h)
	}
	obsClusterForwards.Inc()
	resp, err := cp.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, respBody, nil
}

// route decides whether a /v1/verify or /v1/verify/delta request for a
// key this replica does not own is answered off-path (local cache, peer
// cache, or a forward of body to the owner's path). It returns true when
// it wrote the response; false falls through to the normal local
// pipeline — either because this replica owns the key, the request
// already made its one hop, or every remote path failed (degrade to
// local compute). reply renders verdict fields as the endpoint's
// response under a provenance; fwd receives an owner's forwarded answer.
func (s *Server) route(w http.ResponseWriter, r *http.Request, q cdg.Query[cdg.Report], path string, body []byte, reply func(*PeerLookupResponse, string) any, fwd relayed) bool {
	cp := s.cluster
	if cp == nil {
		return false
	}
	owner := cp.ring.Owner(q.Key)
	if owner == cp.self {
		return false
	}
	if r.Header.Get(ForwardHeader) != "" {
		// Single-hop protection: a forwarded request is served here no
		// matter what this replica's ring says.
		obsClusterForwardServed.Inc()
		return false
	}
	tc := trace.FromContext(r.Context())
	// Step 1: this replica's own cache (seeded by snapshots, earlier
	// forwards, or degraded computes).
	if rep, ok := s.cache.Lookup(q.Key, q.Check); ok {
		obsVerdictCache.Inc()
		tc.SetProvenance(provCache)
		writeJSON(w, http.StatusOK, reply(verdictFields(rep), provCache))
		return true
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	// Step 2: the owner's cache, one GET away.
	if pl, err := cp.lookup(ctx, owner, q.Key, q.Check); err == nil && pl != nil {
		obsVerdictPeer.Inc()
		tc.SetProvenance(provPeer)
		writeJSON(w, http.StatusOK, reply(pl, provPeer))
		return true
	}
	if cp.noForward {
		return false
	}
	// Step 3: proxy to the owner, which computes and memoizes in the
	// shard the key belongs to.
	status, respBody, err := cp.forward(ctx, owner, path, body)
	if err != nil {
		obsClusterForwardFails.Inc()
		return false
	}
	if status != http.StatusOK {
		// The owner rejected the request (bad design, backpressure, ...);
		// its verdict-free answer passes through verbatim.
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(status)
		w.Write(respBody)
		return true
	}
	if err := json.Unmarshal(respBody, fwd); err != nil {
		obsClusterForwardFails.Inc()
		return false
	}
	fwd.relabel(provForwarded)
	tc.SetProvenance(provForwarded)
	obsVerdictForwarded.Inc()
	writeJSON(w, http.StatusOK, fwd)
	return true
}

// relayed is a response body a non-owner relays from the owner under its
// own provenance.
type relayed interface{ relabel(prov string) }

func (r *VerifyResponse) relabel(prov string) { r.Provenance = prov }
func (r *DeltaResponse) relabel(prov string)  { r.Provenance = prov }

// verdictFields carries a report's verdict in peer-lookup form, the one
// shape every response builder reads — whether the verdict came from
// this replica's engine or an owner's cache. Cycle is pre-formatted.
func verdictFields(rep cdg.Report) *PeerLookupResponse {
	v := &PeerLookupResponse{
		Found:    true,
		Network:  rep.Network,
		Channels: rep.Channels,
		Edges:    rep.Edges,
		Acyclic:  rep.Acyclic,
	}
	if !rep.Acyclic {
		v.Cycle = cdg.FormatCycle(rep.Cycle)
	}
	return v
}

// respondVerify builds a /v1/verify response. The verdict fields come
// from the report (local or the owner's); the request-shaped fields
// (network rendering, turn counts, key) are derived locally from the
// built request — no cdg.Report is ever materialized outside the engine.
func respondVerify(b *builtVerify, v *PeerLookupResponse, prov string) *VerifyResponse {
	n90, nU, nI := b.ts.Counts()
	return &VerifyResponse{
		Network:    b.net.String(),
		Channels:   v.Channels,
		Edges:      v.Edges,
		Acyclic:    v.Acyclic,
		Cycle:      v.Cycle,
		Turns:      TurnCounts{Deg90: n90, U: nU, I: nI},
		Provenance: prov,
		Key:        strconv.FormatUint(b.q.Key, 16),
	}
}

// respondDelta builds a /v1/verify/delta response. Delta reports name the
// perturbed network (the "-faulty" rendering), so Network comes from the
// verdict, not the base request.
func respondDelta(v *PeerLookupResponse, prov string, key, baseKey uint64) *DeltaResponse {
	return &DeltaResponse{
		Network:    v.Network,
		Channels:   v.Channels,
		Edges:      v.Edges,
		Acyclic:    v.Acyclic,
		Cycle:      v.Cycle,
		Provenance: prov,
		Key:        strconv.FormatUint(key, 16),
		BaseKey:    strconv.FormatUint(baseKey, 16),
	}
}
