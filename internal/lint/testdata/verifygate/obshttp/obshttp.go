// Package obshttp is verifygate's observability-layer golden file. Its
// import path ends in "/obshttp", so the analyzer applies the
// observability contract: /debug and metrics handlers read published
// state — cache lookups, snapshots, trace rings — and never drive the
// verify engine. Every cdg Verify* call is flagged here, cached or not:
// even a cache-miss on the blessed serving path would let a debug scrape
// enqueue verification work.
package obshttp

import (
	"context"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// debugVerify drives the engine from a debug handler: the uncached
// pooled entry point is off-limits.
func debugVerify(ctx context.Context, net *topology.Network, ts *core.TurnSet) (cdg.Report, error) {
	return cdg.VerifyTurnSetCtx(ctx, net, nil, ts, 1) // want `verification call cdg.VerifyTurnSetCtx from the observability layer`
}

// debugCachedVerify shows the cached wrapper is equally banned: a cache
// miss would still compute a verdict inside a metrics scrape.
func debugCachedVerify(net *topology.Network, ts *core.TurnSet) bool {
	return cdg.VerifyTurnSetCached(net, nil, ts).Acyclic // want `verification call cdg.VerifyTurnSetCached from the observability layer`
}

// debugCacheCompute reaches the engine through a cache method; the ban
// covers methods as well as package functions.
func debugCacheCompute(ctx context.Context, cache *cdg.VerifyCache, net *topology.Network, ts *core.TurnSet) (cdg.Report, error) {
	return cache.Verify(ctx, cdg.TurnSetQuery(net, nil, ts), 1) // want `verification call cdg.Verify from the observability layer`
}

// publishedState is the sanctioned read: a cache lookup only ever
// returns verdicts the serving layer already produced.
func publishedState(cache *cdg.VerifyCache, net *topology.Network, ts *core.TurnSet) (cdg.Report, bool) {
	q := cdg.TurnSetQuery(net, nil, ts)
	return cache.Lookup(q.Key, q.Check)
}
