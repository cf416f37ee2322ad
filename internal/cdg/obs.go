package cdg

import "ebda/internal/obs"

// Engine instrumentation: every series the verification pipeline records,
// hoisted to package variables so hot paths never touch the registry.
// Counters mirror the invariants DESIGN.md §7 documents — e.g. pool gets
// equal puts after every verification, cache hits+misses equal verify
// calls through the cached entry points.
var (
	obsVerifies = obs.NewCounter("ebda_cdg_verifies_total",
		"turn-set and relation verifications run on a concrete graph")
	obsVerifyCyclic = obs.NewCounter("ebda_cdg_verify_cyclic_total",
		"verifications whose dependency graph contained a cycle")
	obsKahnRounds = obs.NewCounter("ebda_cdg_kahn_rounds_total",
		"frontier rounds executed by the Kahn topological peel")
	obsResidualDFS = obs.NewCounter("ebda_cdg_residual_dfs_total",
		"residual cycle-extraction DFS runs (one per cyclic verification)")
	obsVerifyCancelled = obs.NewCounter("ebda_cdg_verify_cancelled_total",
		"verifications abandoned by context cancellation before a verdict")
	obsQuotientAnswers = obs.NewCounter("ebda_cdg_quotient_answers_total",
		"verify-cache misses answered by a design's quotient without a concrete graph")
	obsQuotientUndecided = obs.NewCounter("ebda_cdg_quotient_undecided_total",
		"verify-cache misses the quotient left undecided, verified concretely")
	obsQuotientBuilds = obs.NewCounter("ebda_cdg_quotient_builds_total",
		"quotients built and decided: quotient cache misses")
	obsQuotientHits = obs.NewCounter("ebda_cdg_quotient_cache_hits_total",
		"quotient verdicts answered from the quotient cache")
	obsQuotientEvictions = obs.NewCounter("ebda_cdg_quotient_cache_evictions_total",
		"entries dropped by quotient cache epoch flushes")

	obsModeLoop = obs.NewCounter(obs.Label("ebda_cdg_mode_verifies_total", "mode", "loop"),
		"loop-mode (full-graph acyclicity) verifications of imported channel graphs")
	obsModeLiveness = obs.NewCounter(obs.Label("ebda_cdg_mode_verifies_total", "mode", "liveness"),
		"liveness-mode verifications of imported channel graphs")
	obsModeEscape = obs.NewCounter(obs.Label("ebda_cdg_mode_verifies_total", "mode", "escape"),
		"escape-mode (Duato condition) verifications of imported channel graphs")
	obsModeSubrel = obs.NewCounter(obs.Label("ebda_cdg_mode_verifies_total", "mode", "subrel"),
		"valid-subrelation searches over imported channel graphs")
	obsModeViolations = obs.NewCounter("ebda_cdg_mode_violations_total",
		"mode verifications whose property was violated")
	obsModeCacheHits = obs.NewCounter("ebda_mode_cache_hits_total",
		"mode cache probes answered from a memoized verdict")
	obsModeCacheMisses = obs.NewCounter("ebda_mode_cache_misses_total",
		"mode cache probes that recomputed the verdict")
	obsModeCacheEvictions = obs.NewCounter("ebda_mode_cache_evictions_total",
		"entries dropped by mode cache epoch flushes")

	obsCacheHits = obs.NewCounter("ebda_verify_cache_hits_total",
		"verify cache probes answered from a memoized report")
	obsCacheMisses = obs.NewCounter("ebda_verify_cache_misses_total",
		"verify cache probes that recomputed the report")
	obsCacheEvictions = obs.NewCounter("ebda_verify_cache_evictions_total",
		"entries dropped by verify cache epoch flushes")
	obsCacheEntries = obs.NewGauge("ebda_verify_cache_entries",
		"live entries in the default verify cache")
	obsSnapshotSaved = obs.NewCounter("ebda_verify_cache_snapshot_saved_total",
		"cache entries written to verify-cache snapshots")
	obsSnapshotLoaded = obs.NewCounter("ebda_verify_cache_snapshot_loaded_total",
		"cache entries loaded from verify-cache snapshots")

	obsDeltaVerifies = obs.NewCounter("ebda_cdg_delta_verifies_total",
		"delta verifications run through retained workspaces")
	obsDeltaIncremental = obs.NewCounter("ebda_cdg_delta_incremental_total",
		"link-only delta verifications answered by the removal cascade on the retained base")
	obsDeltaFallbacks = obs.NewCounter("ebda_cdg_delta_fallbacks_total",
		"turn-toggle delta verifications answered by rebuilding the toggled design and a full peel")
	obsDeltaPoolGets = obs.NewCounter("ebda_delta_pool_gets_total",
		"delta workspace pool checkouts")
	obsDeltaPoolReuses = obs.NewCounter("ebda_delta_pool_reuses_total",
		"delta workspace pool checkouts satisfied from the free list")

	obsPoolGets = obs.NewCounter("ebda_workspace_pool_gets_total",
		"workspace pool checkouts")
	obsPoolReuses = obs.NewCounter("ebda_workspace_pool_reuses_total",
		"workspace pool checkouts satisfied from the free list")
	obsPoolPuts = obs.NewCounter("ebda_workspace_pool_puts_total",
		"workspaces returned to the pool")

	phaseMode     = obs.NewPhase("cdg.mode", "")
	phaseVerify   = obs.NewPhase("cdg.verify", "")
	phaseEdges    = obs.NewPhase("cdg.addTurnEdges", "cdg.verify")
	phaseAcycl    = obs.NewPhase("cdg.acyclicity", "cdg.verify")
	phaseQuotient = obs.NewPhase("cdg.quotient", "cdg.verify")
	phaseDelta    = obs.NewPhase("cdg.delta", "")
)
