package cdg

import (
	"context"
	"sync"
	"sync/atomic"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/obs"
	"ebda/internal/topology"
)

// Cache memoizes verdicts of one report type, keyed by a canonical
// 64-bit hash of the question asked (the *Key family: VerifyKey,
// DeltaKey, ModeKey). The experiment sweeps (E04/E05/E07, the
// partition strategy searches, the paper-section turn-model
// enumerations) verify many structurally identical designs — chains
// rebuilt per call produce fresh TurnSet instances with identical
// relations — and the cache turns those repeats into a map probe.
//
// The cache is goroutine-safe. Each entry stores a second, independently
// derived 64-bit check hash: a probe whose key matches but whose check
// differs is treated as a miss and recomputed, so a single-hash collision
// can never surface a wrong report. Cached reports share their witness
// slices; callers must treat them as read-only (every in-repo consumer
// only formats them). The zero value is an empty cache.
type Cache[R any] struct {
	// entries, when set, publishes the live entry count. Only
	// DefaultCache sets it: the gauge describes the process-wide cache,
	// not the private caches of replicas and tests.
	entries *obs.Gauge

	mu sync.RWMutex
	m  map[uint64]cacheEntry[R]

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheEntry[R any] struct {
	check uint64
	rep   R
}

// VerifyCache holds full and delta verification Reports, ModeCache
// multi-mode verdicts over abstract edge sets. A third, unexported one
// holds size-free quotient verdicts (quotient.go).
type (
	VerifyCache = Cache[Report]
	ModeCache   = Cache[ModeReport]
)

// maxCacheEntries bounds memory: past it the map is flushed wholesale (an
// epoch flush — correctness never depends on cache contents). The
// repository's full sweep population is a few thousand entries. It is a
// variable only so tests can lower it to exercise the eviction path.
var maxCacheEntries = 1 << 15

// DefaultCache is the process-wide verification cache behind
// VerifyTurnSetCached and VerifyChainCached.
var DefaultCache = &VerifyCache{entries: obsCacheEntries}

// Query is one cacheable verification: its dual-hash identity, hashed
// once when the query is built, and the computation that answers it on a
// miss. Build one with TurnSetQuery, DeltaQuery or ModeQuery;
// the same Key and Check serve the cache probe, singleflight coalescing
// and shard routing.
type Query[R any] struct {
	Key, Check uint64
	compute    func(ctx context.Context) (R, error)
}

// CacheStats is a snapshot of cache effectiveness.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// cacheSeries are the process-wide counters one report type's caches
// feed: every VerifyCache instance counts into ebda_verify_cache_*, every
// ModeCache into ebda_mode_cache_*, the quotient cache into
// ebda_cdg_quotient_*.
type cacheSeries struct{ hits, misses, evictions *obs.Counter }

var (
	verifySeries   = cacheSeries{obsCacheHits, obsCacheMisses, obsCacheEvictions}
	modeSeries     = cacheSeries{obsModeCacheHits, obsModeCacheMisses, obsModeCacheEvictions}
	quotientSeries = cacheSeries{obsQuotientHits, obsQuotientBuilds, obsQuotientEvictions}
)

func (c *Cache[R]) series() *cacheSeries {
	switch any((*R)(nil)).(type) {
	case *Report:
		return &verifySeries
	case *quotient:
		return &quotientSeries
	default:
		return &modeSeries
	}
}

// Stats returns current hit/miss/eviction counters and the live entry
// count.
func (c *Cache[R]) Stats() CacheStats {
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}

// Lookup probes the cache by dual-hash identity without computing on a
// miss. A hit counts as cache traffic (it answers a verification); a miss
// counts nothing — the caller decides whether to compute, and Verify
// records the miss. Serving layers use Lookup to report provenance
// exactly (hit -> served from cache), and cluster replicas answer peer
// probes with it: the check hash guarantees a collision is a miss, never
// a wrong report.
func (c *Cache[R]) Lookup(key, check uint64) (R, bool) {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	if ok && e.check == check {
		c.hits.Add(1)
		c.series().hits.Inc()
		return e.rep, true
	}
	var zero R
	return zero, false
}

// Verify returns the memoized answer to q, computing and caching it on a
// miss. Answers are identical to the uncached path. A hit is answered even
// when ctx has already expired — it costs no work and the verdict is
// real. A miss that fails (cancellation, an invalid diff) returns the
// error, counts as a miss and stores nothing: partial peels never become
// cache entries.
func (c *Cache[R]) Verify(ctx context.Context, q Query[R]) (R, error) {
	if rep, ok := c.Lookup(q.Key, q.Check); ok {
		return rep, nil
	}
	c.misses.Add(1)
	c.series().misses.Inc()
	rep, err := q.compute(ctx)
	if err != nil {
		var zero R
		return zero, err
	}
	c.mu.Lock()
	c.putLocked(q.Key, cacheEntry[R]{check: q.Check, rep: rep})
	c.publish(len(c.m))
	c.mu.Unlock()
	return rep, nil
}

// putLocked stores one entry under c.mu, flushing the map wholesale first
// when it is full; the flushed entries count as evictions.
func (c *Cache[R]) putLocked(key uint64, e cacheEntry[R]) {
	if c.m == nil || len(c.m) >= maxCacheEntries {
		if n := len(c.m); n > 0 {
			c.evictions.Add(uint64(n))
			c.series().evictions.Add(uint64(n))
		}
		c.m = make(map[uint64]cacheEntry[R])
	}
	c.m[key] = e
}

// publish sets the entries gauge of a cache that owns one.
func (c *Cache[R]) publish(n int) {
	if c.entries != nil {
		c.entries.Set(int64(n))
	}
}

// reportOf drops the error of a computation that cannot fail (no
// deadline, nothing to validate), for the error-free wrappers below.
func reportOf[R any](rep R, _ error) R { return rep }

// verifyKey derives the cache key and its independent check hash. The
// network contributes its family name, per-dimension sizes and wraps (and,
// for irregular networks, every link in Links() order — shape parameters
// alone do not determine an irregular topology); the VC configuration
// contributes its effective per-dimension counts; the turn set contributes
// its order-independent relation fingerprint.
func verifyKey(net *topology.Network, vcs VCConfig, ts *core.TurnSet) (key, check uint64) {
	h := dualHash{0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f}
	name := net.Name()
	h.put(uint64(len(name)))
	for i := 0; i < len(name); i++ {
		h.put(uint64(name[i]))
	}
	dims := net.Dims()
	h.put(uint64(dims))
	for d := 0; d < dims; d++ {
		h.put(uint64(net.Size(channel.Dim(d))))
		if net.Wrap(channel.Dim(d)) {
			h.put(1)
		} else {
			h.put(0)
		}
		h.put(uint64(vcs.VCs(channel.Dim(d))))
	}
	if !net.Regular() {
		// The link count leads the links, so one walk counts and a second
		// hashes; neither materialises the link list.
		var walk topology.Walker
		count := 0
		walk.Walk(net, func(_ topology.NodeID, _ topology.Coord, out []topology.Link) { count += len(out) })
		h.put(uint64(count))
		walk.Walk(net, func(_ topology.NodeID, _ topology.Coord, out []topology.Link) {
			for _, l := range out {
				h.put(uint64(uint32(l.From))<<32 | uint64(uint32(l.To)))
				w := uint64(0)
				if l.Wrap {
					w = 1
				}
				s := uint64(0)
				if l.Sign == channel.Minus {
					s = 1
				}
				h.put(uint64(l.Dim)<<2 | s<<1 | w)
			}
		})
	}
	f1, f2 := ts.Fingerprint()
	h.put(f1)
	h.put(f2)
	return h.a, h.b
}

// dualHash folds key components into two independently mixed 64-bit
// hashes: a cache key and its check.
type dualHash struct{ a, b uint64 }

func (h *dualHash) put(v uint64) {
	h.a = mix64(h.a ^ v)
	h.b = mix64(h.b*0x100000001b3 + v)
}

// VerifyKey exposes the cache's dual-hash identity of a verification:
// the canonical key and its independently derived check hash. The pair is
// stable across processes, so serving layers can use it to coalesce
// concurrent identical verifications onto one computation (two requests
// share a flight iff they would share a cache entry).
func VerifyKey(net *topology.Network, vcs VCConfig, ts *core.TurnSet) (key, check uint64) {
	return verifyKey(net, vcs, ts)
}

// mix64 is the splitmix64 finalizer, used to diffuse key components.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TurnSetQuery is the cache query for one (network, VC configuration,
// turn set) verification under VerifyKey. A miss asks the design's
// quotient first and builds the concrete graph in a pooled workspace only
// when the quotient cannot answer (verifyDesign).
func TurnSetQuery(net *topology.Network, vcs VCConfig, ts *core.TurnSet) Query[Report] {
	key, check := verifyKey(net, vcs, ts)
	return Query[Report]{Key: key, Check: check, compute: func(ctx context.Context) (Report, error) {
		return verifyDesign(ctx, nil, net, vcs, ts)
	}}
}

// DeltaKey derives the cache identity of a delta verification: the base
// verification's dual-hash key mixed with the diff's canonical
// fingerprint. Like VerifyKey it is stable across processes, so serving
// layers coalesce concurrent identical deltas onto one computation. Delta
// entries live in the same cache map as full verifications; the seeds
// keep the two key families decorrelated and the check hash catches any
// residual collision.
func DeltaKey(net *topology.Network, vcs VCConfig, ts *core.TurnSet, diff Diff) (key, check uint64) {
	bk, bc := verifyKey(net, vcs, ts)
	return deltaKey(bk, bc, diff)
}

func deltaKey(baseKey, baseCheck uint64, diff Diff) (key, check uint64) {
	const (
		deltaSeedA = 0x71c3a9d0f54bd137
		deltaSeedB = 0x3c79ac492ba7b653
	)
	f1, f2 := diff.Fingerprint()
	return mix64(baseKey ^ mix64(f1^deltaSeedA)), mix64(baseCheck*0x100000001b3 + mix64(f2^deltaSeedB))
}

// DeltaQuery is the cache query for the base design perturbed by the
// diff, under DeltaKey. A miss checks a retained workspace for the base
// out of DefaultDeltaPool and re-verifies incrementally; an invalid diff
// fails with ErrBadDiff. Reports are bit-identical to a from-scratch
// verification of the perturbed design.
func DeltaQuery(net *topology.Network, vcs VCConfig, ts *core.TurnSet, diff Diff) Query[Report] {
	bk, bc := verifyKey(net, vcs, ts)
	key, check := deltaKey(bk, bc, diff)
	return Query[Report]{Key: key, Check: check, compute: func(ctx context.Context) (Report, error) {
		dw, err := DefaultDeltaPool.get(ctx, bk, bc, net, vcs, ts)
		if err != nil {
			return Report{}, err
		}
		defer DefaultDeltaPool.Put(dw)
		return dw.verifyDiff(ctx, diff)
	}}
}

// VerifyTurnSetCached is VerifyTurnSet through the DefaultCache.
func VerifyTurnSetCached(net *topology.Network, vcs VCConfig, ts *core.TurnSet) Report {
	return reportOf(DefaultCache.Verify(context.Background(), TurnSetQuery(net, vcs, ts)))
}

// VerifyChainCached is VerifyChain through the DefaultCache: the chain's
// full turn set and derived VC configuration, memoized by relation — two
// chains extracting equal turn sets share one verification.
func VerifyChainCached(net *topology.Network, chain *core.Chain) Report {
	return VerifyTurnSetCached(net, VCConfigFor(net.Dims(), chain.Channels()), chain.AllTurns())
}
