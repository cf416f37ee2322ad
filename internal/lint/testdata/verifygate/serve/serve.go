// Package serve is verifygate's serving-layer golden file. Its import
// path ends in "/serve", so the analyzer applies the stricter serving
// contract: on top of the usual bans, every verdict must flow through
// the verify cache — the uncached package-level entry points and the
// Workspace verify methods are forbidden here.
package serve

import (
	"context"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// uncachedVerdict computes a served verdict without the cache.
func uncachedVerdict(net *topology.Network, ts *core.TurnSet) bool {
	return cdg.VerifyTurnSet(net, nil, ts).Acyclic // want `uncached verify call cdg.VerifyTurnSet in`
}

// uncachedParallel is the Jobs variant of the same mistake.
func uncachedParallel(net *topology.Network, ts *core.TurnSet) bool {
	return cdg.VerifyTurnSetJobs(net, nil, ts, 4).Acyclic // want `uncached verify call cdg.VerifyTurnSetJobs in`
}

// uncachedCtx threads a deadline but still skips the cache.
func uncachedCtx(ctx context.Context, net *topology.Network, ts *core.TurnSet) (cdg.Report, error) {
	return cdg.VerifyTurnSetCtx(ctx, net, nil, ts) // want `uncached verify call cdg.VerifyTurnSetCtx in`
}

// uncachedChain verifies a chain outside the cache.
func uncachedChain(net *topology.Network, chain *core.Chain) bool {
	return cdg.VerifyChain(net, chain).Acyclic // want `uncached verify call cdg.VerifyChain in`
}

// rawBuild constructs the graph directly; in a serving package even the
// build step is off the blessed path.
func rawBuild(net *topology.Network, ts *core.TurnSet) *cdg.Graph {
	return cdg.BuildFromTurnSet(net, nil, ts) // want `uncached verify call cdg.BuildFromTurnSet in`
}

// uncachedEdgeSet verifies an abstract edge-set graph outside the cache;
// in a serving package even topology-free verdicts must be memoized
// through cdg.VerifyEdgeSetCached.
func uncachedEdgeSet(e *cdg.EdgeSet) bool {
	return cdg.VerifyEdgeSet(e).Acyclic // want `uncached verify call cdg.VerifyEdgeSet in`
}

// cachedEdgeSet is the blessed topology-free path.
func cachedEdgeSet(e *cdg.EdgeSet) bool {
	return cdg.VerifyEdgeSetCached(e).Acyclic
}

// uncachedMode proves a multi-mode property of an imported channel
// graph outside the mode cache; a served mode verdict would be
// unmemoized and uncoalescible.
func uncachedMode(e *cdg.EdgeSet, in, out []int) bool {
	return cdg.VerifyMode(e, cdg.ModeLiveness, in, out, nil).OK // want `uncached verify call cdg.VerifyMode in`
}

// uncachedModeJobs is the Jobs variant of the same mistake.
func uncachedModeJobs(e *cdg.EdgeSet, in, out []int) bool {
	return cdg.VerifyModeJobs(e, cdg.ModeSubrel, in, out, nil, 4).OK // want `uncached verify call cdg.VerifyModeJobs in`
}

// cachedMode is the blessed multi-mode path: a cdg.ModeQuery whose key
// serves coalescing, ModeCache.Lookup for hits, the cache's
// context-aware Verify for misses.
func cachedMode(ctx context.Context, c *cdg.ModeCache, e *cdg.EdgeSet, in, out []int) (cdg.ModeReport, error) {
	q := cdg.ModeQuery(e, cdg.ModeEscape, in, out, nil)
	if rep, ok := c.Lookup(q.Key, q.Check); ok {
		return rep, nil
	}
	key, _ := cdg.ModeKey(e, cdg.ModeEscape, in, out, nil)
	_ = key
	return c.Verify(ctx, q)
}

// cachedModeWrapper shows the process-wide cached wrapper is sanctioned.
func cachedModeWrapper(e *cdg.EdgeSet, in, out []int) bool {
	return cdg.VerifyModeCached(e, cdg.ModeLoop, in, out, nil).OK
}

// workspaceVerdict bypasses the cache via a private workspace.
func workspaceVerdict(ctx context.Context, net *topology.Network, ts *core.TurnSet) (cdg.Report, error) {
	ws := cdg.NewWorkspace(net, nil)
	return ws.VerifyTurnSetCtx(ctx, ts, 1) // want `workspace verify call cdg.Workspace.VerifyTurnSetCtx`
}

// deltaWorkspaceVerdict builds a retained delta workspace by hand; in a
// serving package the verdict would bypass the delta cache.
func deltaWorkspaceVerdict(net *topology.Network, ts *core.TurnSet, diff cdg.Diff) (cdg.Report, error) {
	dw, err := cdg.NewDeltaWorkspace(net, nil, ts) // want `direct delta workspace construction cdg.NewDeltaWorkspace in`
	if err != nil {
		return cdg.Report{}, err
	}
	return dw.VerifyDiffJobs(diff, 1) // want `delta workspace verify call cdg.DeltaWorkspace.VerifyDiffJobs`
}

// deltaWorkspaceCtx is the context-threading variant of the same bypass.
func deltaWorkspaceCtx(ctx context.Context, net *topology.Network, ts *core.TurnSet, diff cdg.Diff) (cdg.Report, error) {
	dw, err := cdg.NewDeltaWorkspaceCtx(ctx, net, nil, ts, 1) // want `direct delta workspace construction cdg.NewDeltaWorkspaceCtx in`
	if err != nil {
		return cdg.Report{}, err
	}
	return dw.VerifyDiffCtx(ctx, diff, 1) // want `delta workspace verify call cdg.DeltaWorkspace.VerifyDiffCtx`
}

// deltaPoolVerdict checks a workspace out of the shared pool directly,
// skipping the memoizing delta cache entry.
func deltaPoolVerdict(ctx context.Context, net *topology.Network, ts *core.TurnSet, diff cdg.Diff) (cdg.Report, error) {
	dw, err := cdg.DefaultDeltaPool.GetCtx(ctx, net, nil, ts) // want `delta pool checkout cdg.DeltaPool.GetCtx`
	if err != nil {
		return cdg.Report{}, err
	}
	defer cdg.DefaultDeltaPool.Put(dw)
	return dw.VerifyDiffCtx(ctx, diff, 1) // want `delta workspace verify call cdg.DeltaWorkspace.VerifyDiffCtx`
}

// cachedDeltaVerdict is the blessed serving path for incremental
// verdicts: a cdg.DeltaQuery, Lookup for hits, the cache's Verify (a
// pooled delta re-peel) for misses.
func cachedDeltaVerdict(ctx context.Context, c *cdg.VerifyCache, net *topology.Network, ts *core.TurnSet, diff cdg.Diff) (cdg.Report, error) {
	q := cdg.DeltaQuery(net, nil, ts, diff)
	if rep, ok := c.Lookup(q.Key, q.Check); ok {
		return rep, nil
	}
	return c.Verify(ctx, q)
}

// cachedDeltaHelpers shows the other sanctioned delta entry points: the
// delta identity for coalescing and the process-wide cached wrapper.
func cachedDeltaHelpers(net *topology.Network, ts *core.TurnSet, diff cdg.Diff) (uint64, error) {
	key, _ := cdg.DeltaKey(net, nil, ts, diff)
	_, err := cdg.VerifyDeltaCached(net, nil, ts, diff)
	return key, err
}

// cachedVerdict is the blessed serving path: a cdg.TurnSetQuery, Lookup
// for hits, then the cache's context-aware Verify for misses.
func cachedVerdict(ctx context.Context, c *cdg.VerifyCache, net *topology.Network, ts *core.TurnSet) (cdg.Report, error) {
	q := cdg.TurnSetQuery(net, nil, ts)
	if rep, ok := c.Lookup(q.Key, q.Check); ok {
		return rep, nil
	}
	return c.Verify(ctx, q)
}

// cachedHelpers shows the other sanctioned entry points: the dual-hash
// key for coalescing and the process-wide cached wrappers.
func cachedHelpers(net *topology.Network, ts *core.TurnSet) (uint64, bool) {
	key, _ := cdg.VerifyKey(net, nil, ts)
	return key, cdg.VerifyTurnSetCached(net, nil, ts).Acyclic
}

// errorPath returns the zero-value Report beside a non-nil error; an
// empty literal carries no verdict and is not flagged.
func errorPath(err error) (cdg.Report, error) {
	return cdg.Report{}, err
}

// diagnosticAllowed keeps the escape hatch working in serving packages.
func diagnosticAllowed(net *topology.Network, ts *core.TurnSet) bool {
	return cdg.VerifyTurnSet(net, nil, ts).Acyclic //ebda:allow verifygate golden-file demonstration of a sanctioned diagnostic
}
