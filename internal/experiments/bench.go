package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// BenchExperiment records the wall time of one reproduction experiment,
// plus the verification-cache traffic it generated (hit/miss deltas over
// the run of that experiment alone).
type BenchExperiment struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	Match       bool    `json:"match"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	// CacheHitRate is hits/(hits+misses) over this experiment alone (0
	// when it generated no cache traffic).
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// BenchCDG records the construction rate of one channel dependency graph:
// the core verification primitive, expressed as channels processed per
// second so snapshots are comparable across network sizes. The repeat
// columns measure the pooled fast path: allocations and bytes per verify
// (runtime.MemStats deltas) over repeated verifications of the same shape,
// where the workspace pool should make reruns nearly allocation-free.
type BenchCDG struct {
	Network        string  `json:"network"`
	Channels       int     `json:"channels"`
	Edges          int     `json:"edges"`
	Acyclic        bool    `json:"acyclic"`
	WallSeconds    float64 `json:"wall_seconds"`
	ChannelsPerSec float64 `json:"channels_per_sec"`
	RepeatAllocs   float64 `json:"repeat_allocs_per_verify"`
	RepeatBytes    float64 `json:"repeat_bytes_per_verify"`
}

// BenchCache summarises the verification cache over the whole snapshot run.
type BenchCache struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hit_rate"`
}

// Bench is the perf snapshot written by `ebda-repro -benchjson` (the
// BENCH_verify.json file): per-experiment wall times plus CDG construction
// rates, stamped with the toolchain and CPU count it ran under.
type Bench struct {
	GeneratedAt string            `json:"generated_at"`
	GoVersion   string            `json:"go_version"`
	NumCPU      int               `json:"num_cpu"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	Quick       bool              `json:"quick"`
	Experiments []BenchExperiment `json:"experiments"`
	CDG         []BenchCDG        `json:"cdg"`
	VerifyCache BenchCache        `json:"verify_cache"`
}

// benchCDGCases are the networks the snapshot times: the six-channel fully
// adaptive design (the paper's Figure 7 flagship) on growing meshes.
func benchCDGCases() []*topology.Network {
	return []*topology.Network{
		topology.NewMesh(16, 16),
		topology.NewMesh(32, 32),
		topology.NewMesh(48, 48),
	}
}

// RunBench executes every experiment and the CDG construction cases,
// timing each, and returns the snapshot. Experiments run one at a time so
// their wall times are not polluted by sibling load.
func RunBench(opts Options) Bench {
	b := Bench{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339), //ebda:allow detlint bench snapshots are stamped with real wall time by design
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Quick:       opts.Quick,
	}
	// Start the verification cache fresh so the snapshot's hit/miss
	// columns describe this run alone.
	cdg.DefaultCache.Reset()
	prev := cdg.DefaultCache.Stats()
	for _, r := range All() {
		start := time.Now() //ebda:allow detlint bench harness measures wall time by design
		res := r.Run(opts)
		wall := time.Since(start).Seconds() //ebda:allow detlint bench harness measures wall time by design
		cur := cdg.DefaultCache.Stats()
		hits, misses := cur.Hits-prev.Hits, cur.Misses-prev.Misses
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		b.Experiments = append(b.Experiments, BenchExperiment{
			ID: r.ID, Name: r.Name,
			WallSeconds:  wall,
			Match:        res.Match,
			CacheHits:    hits,
			CacheMisses:  misses,
			CacheHitRate: rate,
		})
		prev = cur
	}
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	ts := chain.AllTurns()
	vcs := cdg.VCConfigFor(2, chain.Channels())
	for _, net := range benchCDGCases() {
		start := time.Now() //ebda:allow detlint bench harness measures wall time by design
		rep := cdg.VerifyTurnSet(net, vcs, ts)
		wall := time.Since(start).Seconds() //ebda:allow detlint bench harness measures wall time by design
		rate := 0.0
		if wall > 0 {
			rate = float64(rep.Channels) / wall
		}
		// Repeat columns: the first verify above warmed the workspace
		// pool for this shape, so reruns measure the steady state.
		const repeats = 8
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for r := 0; r < repeats; r++ {
			cdg.VerifyTurnSet(net, vcs, ts)
		}
		runtime.ReadMemStats(&m1)
		b.CDG = append(b.CDG, BenchCDG{
			Network:     net.String(),
			Channels:    rep.Channels,
			Edges:       rep.Edges,
			Acyclic:     rep.Acyclic,
			WallSeconds: wall, ChannelsPerSec: rate,
			RepeatAllocs: float64(m1.Mallocs-m0.Mallocs) / repeats,
			RepeatBytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / repeats,
		})
	}
	s := cdg.DefaultCache.Stats()
	b.VerifyCache = BenchCache{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		Entries: s.Entries, HitRate: s.HitRate(),
	}
	return b
}

// WriteJSON renders the snapshot as indented JSON.
func (b Bench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
