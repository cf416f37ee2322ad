package serve

import "ebda/internal/obs"

// Serving-layer instrumentation, hoisted to package variables so
// handlers never touch the registry. Invariants worth alerting on:
// verdicts{cache}+verdicts{computed}+verdicts{coalesced} equals the
// verifications answered 2xx; queue depth returns to zero when idle;
// rejected{queue_full}/rejected{draining} are the 429/503 counts.
// Per-endpoint latency comes from the serve.* phases, which feed the
// shared ebda_phase_duration_seconds histograms.
var (
	obsReqVerify = obs.NewCounter(obs.Label("ebda_serve_requests_total", "endpoint", "verify"),
		"requests received by /v1/verify")
	obsReqDesign = obs.NewCounter(obs.Label("ebda_serve_requests_total", "endpoint", "design"),
		"requests received by /v1/design")
	obsReqBatch = obs.NewCounter(obs.Label("ebda_serve_requests_total", "endpoint", "batch"),
		"requests received by /v1/batch")
	obsReqDelta = obs.NewCounter(obs.Label("ebda_serve_requests_total", "endpoint", "delta"),
		"requests received by /v1/verify/delta")
	obsReqGraph = obs.NewCounter(obs.Label("ebda_serve_requests_total", "endpoint", "graph"),
		"requests received by /v1/verify/graph")
	obsReqPeerLookup = obs.NewCounter(obs.Label("ebda_serve_requests_total", "endpoint", "peer_lookup"),
		"requests received by /v1/peer/lookup")
	obsReqPeerMetrics = obs.NewCounter(obs.Label("ebda_serve_requests_total", "endpoint", "peer_metrics"),
		"requests received by /v1/peer/metrics")
	obsReqClusterMetrics = obs.NewCounter(obs.Label("ebda_serve_requests_total", "endpoint", "cluster_metrics"),
		"requests received by /v1/cluster/metrics")

	obsVerdictCache = obs.NewCounter(obs.Label("ebda_serve_verdicts_total", "provenance", "cache"),
		"verdicts answered from the verify cache")
	obsVerdictComputed = obs.NewCounter(obs.Label("ebda_serve_verdicts_total", "provenance", "computed"),
		"verdicts computed by the answering request")
	obsVerdictCoalesced = obs.NewCounter(obs.Label("ebda_serve_verdicts_total", "provenance", "coalesced"),
		"verdicts shared from another request's in-flight computation")
	obsVerdictDelta = obs.NewCounter(obs.Label("ebda_serve_verdicts_total", "provenance", "delta"),
		"verdicts computed through a retained delta workspace")
	obsVerdictPeer = obs.NewCounter(obs.Label("ebda_serve_verdicts_total", "provenance", "peer"),
		"verdicts answered from an owning replica's cache via peer lookup")
	obsVerdictForwarded = obs.NewCounter(obs.Label("ebda_serve_verdicts_total", "provenance", "forwarded"),
		"verdicts proxied to and computed by the owning replica")

	obsRejectBad = obs.NewCounter(obs.Label("ebda_serve_rejected_total", "reason", "bad_request"),
		"requests rejected by decode or validation (400)")
	obsRejectQueue = obs.NewCounter(obs.Label("ebda_serve_rejected_total", "reason", "queue_full"),
		"requests rejected by a full admission queue (429)")
	obsRejectDrain = obs.NewCounter(obs.Label("ebda_serve_rejected_total", "reason", "draining"),
		"requests rejected while draining (503)")
	obsRejectDeadline = obs.NewCounter(obs.Label("ebda_serve_rejected_total", "reason", "deadline"),
		"requests abandoned at their deadline (504)")

	obsQueueDepth = obs.NewGauge("ebda_serve_queue_depth",
		"verifications admitted and waiting for a worker")

	// Cluster routing series. Invariants: peer_probes >= peer_probe_hits;
	// forwards = forward-path verdicts + forward_fails + owner-rejected
	// pass-throughs; forward_served counts single-hop arrivals (a second
	// hop never happens, so this equals the forwards peers sent us).
	obsClusterReplicas = obs.NewGauge("ebda_cluster_replicas",
		"ring members this replica routes across")
	obsClusterPeerProbes = obs.NewCounter("ebda_cluster_peer_probes_total",
		"peer cache lookups issued to owning replicas")
	obsClusterPeerHits = obs.NewCounter("ebda_cluster_peer_probe_hits_total",
		"peer cache lookups answered from the owner's cache")
	obsClusterForwards = obs.NewCounter("ebda_cluster_forwards_total",
		"requests proxied to their owning replica")
	obsClusterForwardFails = obs.NewCounter("ebda_cluster_forward_fails_total",
		"forwards that failed in transport and degraded to local compute")
	obsClusterForwardServed = obs.NewCounter("ebda_cluster_forward_served_total",
		"forwarded requests served locally (the single permitted hop)")
	obsPeerLookupHits = obs.NewCounter("ebda_serve_peer_lookup_hits_total",
		"peer lookup requests answered from this replica's cache")
	obsClusterMetricsUnreachable = obs.NewCounter("ebda_cluster_metrics_unreachable_total",
		"metrics fan-out fetches that failed (the merge proceeded without them)")

	phaseServeVerify = obs.NewPhase("serve.verify", "")
	phaseServeDelta  = obs.NewPhase("serve.delta", "")
	phaseServeDesign = obs.NewPhase("serve.design", "")
	phaseServeBatch  = obs.NewPhase("serve.batch", "")
	phaseServeGraph  = obs.NewPhase("serve.graph", "")
)
