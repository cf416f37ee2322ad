// Package cluster is verifygate's shard-router golden file. Its import
// path ends in "/cluster", so the analyzer applies the serving-layer
// contract: the router hands clients verdicts sourced from peer
// replicas, and a verdict computed outside the verify cache would be
// unmemoized, uncoalescible and invisible to peer lookups. The uncached
// package-level entry points, the Workspace verify methods and the
// delta-workspace bypasses are all forbidden here, exactly as in a
// /serve package.
package cluster

import (
	"context"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// uncachedRouteVerdict computes a routed verdict without the cache; a
// peer probing this replica would never see it.
func uncachedRouteVerdict(net *topology.Network, ts *core.TurnSet) bool {
	return cdg.VerifyTurnSet(net, nil, ts).Acyclic // want `uncached verify call cdg.VerifyTurnSet in`
}

// uncachedRouteCtx threads a deadline but still skips the cache.
func uncachedRouteCtx(ctx context.Context, net *topology.Network, ts *core.TurnSet) (cdg.Report, error) {
	return cdg.VerifyTurnSetCtx(ctx, net, nil, ts) // want `uncached verify call cdg.VerifyTurnSetCtx in`
}

// rawRouteBuild constructs the graph directly; even the build step is
// off the blessed path in a routing package.
func rawRouteBuild(net *topology.Network, ts *core.TurnSet) *cdg.Graph {
	return cdg.BuildFromTurnSet(net, nil, ts) // want `uncached verify call cdg.BuildFromTurnSet in`
}

// workspaceRouteVerdict bypasses the cache via a private workspace.
func workspaceRouteVerdict(ctx context.Context, net *topology.Network, ts *core.TurnSet) (cdg.Report, error) {
	ws := cdg.NewWorkspace(net, nil)
	return ws.VerifyTurnSetCtx(ctx, ts, 1) // want `workspace verify call cdg.Workspace.VerifyTurnSetCtx`
}

// deltaRouteBypass builds a retained delta workspace by hand; the
// resulting verdict would bypass the delta cache the ring shards.
func deltaRouteBypass(net *topology.Network, ts *core.TurnSet, diff cdg.Diff) (cdg.Report, error) {
	dw, err := cdg.NewDeltaWorkspace(net, nil, ts) // want `direct delta workspace construction cdg.NewDeltaWorkspace in`
	if err != nil {
		return cdg.Report{}, err
	}
	return dw.VerifyDiffJobs(diff, 1) // want `delta workspace verify call cdg.DeltaWorkspace.VerifyDiffJobs`
}

// forgedPeerVerdict assembles a Report from peer-response fields; the
// ban on hand-built literals is what forces the real router to answer
// from decoded peer JSON instead of minting an engine verdict.
func forgedPeerVerdict(channels, edges int, acyclic bool) cdg.Report {
	return cdg.Report{Channels: channels, Edges: edges, Acyclic: acyclic} // want `cdg.Report constructed by hand outside internal/cdg`
}

// cachedRouteVerdict is the blessed path for a replica that owns the
// key: Lookup for hits, the cache's Verify for misses.
func cachedRouteVerdict(ctx context.Context, c *cdg.VerifyCache, net *topology.Network, ts *core.TurnSet) (cdg.Report, error) {
	q := cdg.TurnSetQuery(net, nil, ts)
	if rep, ok := c.Lookup(q.Key, q.Check); ok {
		return rep, nil
	}
	return c.Verify(ctx, q)
}

// peerProbe is the blessed path for a replica that does not own the
// key: the dual-hash identity routes the request and Lookup answers
// from the owner's memoized verdicts without recomputing.
func peerProbe(c *cdg.VerifyCache, net *topology.Network, ts *core.TurnSet) (cdg.Report, bool) {
	key, check := cdg.VerifyKey(net, nil, ts)
	return c.Lookup(key, check)
}

// routeErrorPath returns the zero-value Report beside a non-nil error;
// an empty literal carries no verdict and is not flagged.
func routeErrorPath(err error) (cdg.Report, error) {
	return cdg.Report{}, err
}
