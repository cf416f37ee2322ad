package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// cdgPath is the package whose verification engine verifygate protects.
const cdgPath = "ebda/internal/cdg"

// Verifygate enforces the domain invariant that verification verdicts
// have a single source of truth. Outside ebda/internal/cdg itself,
// packages must obtain cdg.Reports through the blessed entry points —
// cdg.VerifyTurnSetCached / cdg.VerifyChainCached or routing.Verify —
// which share the workspace pool and the
// goroutine-safe verification cache. Building a Graph and calling
// acyclicity primitives directly (Acyclic, AcyclicJobs, FindCycle,
// FindCycleJobs) bypasses both, and hand-assembled cdg.Report literals
// forge verdicts the engine never produced.
//
// Serving packages (ebda/internal/serve, ebda/internal/cluster and
// anything whose import path ends in "/serve" or "/cluster" — the shard
// router forwards served verdicts, so it carries the same contract)
// are held to a stricter rule: every verdict they hand a
// client must flow through the verify cache — Cache.Lookup plus
// Cache.Verify on a cdg query (TurnSetQuery, DeltaQuery, ModeQuery) or
// a *Cached wrapper — so responses are memoized, coalescible
// and identical across requests. In those packages the uncached pooled
// entry points (cdg.VerifyTurnSet / VerifyTurnSetCtx, VerifyChain,
// BuildFromTurnSet, VerifyMode, the Jobs-suffixed
// signatures the benchmark harness still calls, and the Workspace verify
// methods) are also forbidden. The same contract covers incremental
// verdicts: serving code reaches them only through the cache with a
// cdg.DeltaQuery (Cache.Lookup / Cache.Verify), never by constructing a
// cdg.DeltaWorkspace, checking one out of a cdg.DeltaPool, or calling
// its Verify methods directly — a bypassed delta verdict would be
// unmemoized and uncoalescible.
//
// The observability layer (ebda/internal/obs and everything under it,
// including obshttp and any /obshttp-suffixed package) carries the
// opposite contract: /debug and metrics handlers read published state —
// snapshots, trace rings, cache lookups — and never drive the verify
// engine. Any cdg Verify* call there, cached or not, would let a debug
// scrape enqueue verification work, so all of them are flagged.
//
// Diagnostic tooling that genuinely needs the raw graph (DOT export,
// topological witnesses) may carry //ebda:allow verifygate with a
// justification; everything on the result-producing path may not.
var Verifygate = &Analyzer{
	Name: "verifygate",
	Doc:  "restricts acyclicity primitives and Report construction to the cdg engine's blessed entry points",
	Run:  runVerifygate,
}

// gatedGraphMethods are the *cdg.Graph acyclicity primitives reserved for
// the engine.
var gatedGraphMethods = map[string]bool{
	"Acyclic": true, "AcyclicJobs": true, "FindCycle": true, "FindCycleJobs": true,
}

// uncachedVerifyFuncs are the package-level cdg entry points that compute
// without consulting the verify cache — fine for sweeps and experiments,
// forbidden where served verdicts must be memoized.
var uncachedVerifyFuncs = map[string]bool{
	"VerifyTurnSet": true, "VerifyTurnSetJobs": true, "VerifyTurnSetCtx": true,
	"VerifyChain": true, "BuildFromTurnSet": true, "BuildFromTurnSetJobs": true,
	"VerifyMode": true, "VerifyModeJobs": true,
}

// deltaBypassFuncs construct retained delta workspaces directly,
// bypassing the delta cache entry and the shared workspace pool —
// forbidden in serving packages.
var deltaBypassFuncs = map[string]bool{
	"NewDeltaWorkspace": true, "NewDeltaWorkspaceCtx": true,
}

// servingPkg reports whether an import path carries the serving-layer
// contract: the repo's internal/serve and internal/cluster (the shard
// router hands clients verdicts sourced from peer replicas, so cached
// provenance matters there just as much), plus any /serve- or
// /cluster-suffixed package such as the golden testdata.
func servingPkg(path string) bool {
	return path == "ebda/internal/serve" || strings.HasSuffix(path, "/serve") ||
		path == "ebda/internal/cluster" || strings.HasSuffix(path, "/cluster")
}

// obsPkg reports whether an import path belongs to the observability
// layer: the obs registry, its subpackages (trace, obshttp), and any
// /obshttp-suffixed package such as the golden testdata.
func obsPkg(path string) bool {
	return path == "ebda/internal/obs" ||
		strings.HasPrefix(path, "ebda/internal/obs/") ||
		strings.HasSuffix(path, "/obshttp")
}

func runVerifygate(pass *Pass) error {
	if pass.PkgPath == cdgPath {
		return nil
	}
	serving := servingPkg(pass.PkgPath)
	observ := obsPkg(pass.PkgPath)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				fn, ok := calleeObject(pass.Info, x).(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != cdgPath {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok {
					return true
				}
				if observ && strings.HasPrefix(fn.Name(), "Verify") {
					pass.Reportf(x.Pos(), "verification call cdg.%s from the observability layer; /debug and metrics handlers read published state, they never drive the verify engine", fn.Name())
					return true
				}
				if sig.Recv() == nil {
					if serving && uncachedVerifyFuncs[fn.Name()] {
						pass.Reportf(x.Pos(), "uncached verify call cdg.%s in a serving package; served verdicts must flow through the verify cache (Cache.Lookup / Cache.Verify on a cdg query, or the Cached entry points)", fn.Name())
					}
					if serving && deltaBypassFuncs[fn.Name()] {
						pass.Reportf(x.Pos(), "direct delta workspace construction cdg.%s in a serving package; served delta verdicts must flow through the verify cache (Cache.Lookup / Cache.Verify on a cdg.DeltaQuery)", fn.Name())
					}
					return true
				}
				recv := recvNamed(sig.Recv().Type())
				if recv == "Graph" && gatedGraphMethods[fn.Name()] {
					pass.Reportf(x.Pos(), "direct acyclicity call cdg.Graph.%s outside internal/cdg; obtain verdicts via cdg.VerifyTurnSetCached/VerifyChainCached or routing.Verify (//ebda:allow verifygate for diagnostics)", fn.Name())
				}
				if serving && recv == "Workspace" && strings.HasPrefix(fn.Name(), "Verify") {
					pass.Reportf(x.Pos(), "workspace verify call cdg.Workspace.%s in a serving package; served verdicts must flow through the verify cache", fn.Name())
				}
				if serving && recv == "DeltaWorkspace" && strings.HasPrefix(fn.Name(), "Verify") {
					pass.Reportf(x.Pos(), "delta workspace verify call cdg.DeltaWorkspace.%s in a serving package; served delta verdicts must flow through the verify cache (Cache.Lookup / Cache.Verify on a cdg.DeltaQuery)", fn.Name())
				}
				if serving && recv == "DeltaPool" && strings.HasPrefix(fn.Name(), "Get") {
					pass.Reportf(x.Pos(), "delta pool checkout cdg.DeltaPool.%s in a serving package; served delta verdicts must flow through the verify cache (Cache.Lookup / Cache.Verify on a cdg.DeltaQuery)", fn.Name())
				}
			case *ast.CompositeLit:
				// The zero value cdg.Report{} carries no verdict (error
				// paths return it alongside a non-nil error); only a
				// literal with fields forges one.
				if t := pass.TypeOf(x); t != nil && len(x.Elts) > 0 && namedPath(t) == cdgPath+".Report" {
					pass.Reportf(x.Pos(), "cdg.Report constructed by hand outside internal/cdg; reports must come from the verification engine")
				}
			}
			return true
		})
	}
	return nil
}

// recvNamed returns the name of a method receiver's named type.
func recvNamed(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// namedPath renders a named type as "pkgpath.Name", or "".
func namedPath(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}
