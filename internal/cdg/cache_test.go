package cdg

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

func TestCacheHitOnRepeat(t *testing.T) {
	c := &VerifyCache{}
	net := topology.NewMesh(4, 4)
	ts := xyTurnSet()
	first := cachedVerify(c, net, nil, ts)
	second := cachedVerify(c, net, nil, ts)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached report diverged: %+v vs %+v", first, second)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry", s)
	}
}

func TestCacheHitsAcrossInstances(t *testing.T) {
	// Equal relations built independently on equal-shape (but distinct)
	// networks must share one entry — the sweeps rebuild both per
	// candidate.
	c := &VerifyCache{}
	cachedVerify(c, topology.NewMesh(4, 4), nil, xyTurnSet())
	rep := cachedVerify(c, topology.NewMesh(4, 4), nil, xyTurnSet())
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want a cross-instance hit", s)
	}
	if !rep.Acyclic {
		t.Errorf("XY must verify acyclic: %s", rep)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	c := &VerifyCache{}
	mesh := topology.NewMesh(4, 4)
	base := c.Stats()
	probes := []struct {
		name string
		net  *topology.Network
		vcs  VCConfig
		ts   *core.TurnSet
	}{
		{"base", mesh, nil, xyTurnSet()},
		{"bigger mesh", topology.NewMesh(5, 4), nil, xyTurnSet()},
		{"torus", topology.NewTorus(4, 4), nil, xyTurnSet()},
		{"more vcs", mesh, Uniform(2, 2), xyTurnSet()},
		{"other turns", mesh, nil, allTurnSet()},
	}
	for i, p := range probes {
		cachedVerify(c, p.net, p.vcs, p.ts)
		s := c.Stats()
		if want := base.Misses + uint64(i) + 1; s.Misses != want {
			t.Fatalf("%s: misses = %d, want %d (keys must differ)", p.name, s.Misses, want)
		}
		if s.Hits != base.Hits {
			t.Fatalf("%s: unexpected hit", p.name)
		}
	}
}

func TestCacheInvalidatedByMutation(t *testing.T) {
	c := &VerifyCache{}
	net := topology.NewMesh(4, 4)
	ts := xyTurnSet()
	if rep := cachedVerify(c, net, nil, ts); !rep.Acyclic {
		t.Fatalf("XY must be acyclic: %s", rep)
	}
	// Completing the turn set to every 90-degree turn makes it cyclic;
	// the mutated set must fingerprint differently and re-verify.
	n, s := channel.New(channel.Y, channel.Plus), channel.New(channel.Y, channel.Minus)
	e, w := channel.New(channel.X, channel.Plus), channel.New(channel.X, channel.Minus)
	for _, from := range []channel.Class{n, s} {
		for _, to := range []channel.Class{e, w} {
			ts.Add(from, to, core.ByTheorem1)
		}
	}
	rep := cachedVerify(c, net, nil, ts)
	if rep.Acyclic {
		t.Fatal("full 2D turn set must be cyclic — stale cache entry served")
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want two distinct misses", st)
	}
}

func TestCacheIrregularNetworksDistinct(t *testing.T) {
	// Same name, same dimensions, different elevator columns: only the
	// link list tells them apart, so irregular keys must include it.
	c := &VerifyCache{}
	a := topology.NewPartialMesh3D(3, 3, 2, [][2]int{{0, 0}})
	b := topology.NewPartialMesh3D(3, 3, 2, [][2]int{{0, 0}, {2, 2}})
	ts := xyTurnSet()
	ra := cachedVerify(c, a, nil, ts)
	rb := cachedVerify(c, b, nil, ts)
	if s := c.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("stats = %+v: different irregular networks must miss", s)
	}
	if ra.Channels == rb.Channels {
		t.Errorf("elevator variants report equal channel counts (%d); key test is vacuous", ra.Channels)
	}
}

func TestCacheChainEntryPoint(t *testing.T) {
	// VerifyChainCached must hit across chain re-parses: AllTurns builds
	// a fresh TurnSet per call, but the relation is identical.
	// DefaultCache is process-wide, so the first call may already hit
	// (another test, or -count 2); only the re-parse is pinned.
	net := topology.NewMesh(4, 4)
	spec := "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"
	first := VerifyChainCached(net, core.MustParseChain(spec))
	before := DefaultCache.Stats()
	second := VerifyChainCached(net, core.MustParseChain(spec))
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("chain reports diverged: %+v vs %+v", first, second)
	}
	after := DefaultCache.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("stats before %+v after %+v, want one hit and no miss for the re-parse", before, after)
	}
}

// cachedVerify is one full verification through cache c.
func cachedVerify(c *VerifyCache, net *topology.Network, vcs VCConfig, ts *core.TurnSet) Report {
	rep, _ := c.Verify(context.Background(), TurnSetQuery(net, vcs, ts))
	return rep
}

// cacheCase is one Cache instantiation's fixture: three distinct
// questions and their uncached answers.
type cacheCase[R any] struct {
	qs   []Query[R]
	want []R
}

// cacheCases returns a fixture per report type: full verifications and
// graph modes.
func cacheCases() (cacheCase[Report], cacheCase[ModeReport]) {
	mesh, mesh35, torus := topology.NewMesh(4, 4), topology.NewMesh(3, 5), topology.NewTorus(4, 4)
	e, in, out := escapeOKGraph()
	return cacheCase[Report]{
			qs:   []Query[Report]{TurnSetQuery(mesh, nil, xyTurnSet()), TurnSetQuery(mesh35, nil, allTurnSet()), TurnSetQuery(torus, nil, parityTurnSet())},
			want: []Report{freshReport(mesh, nil, xyTurnSet()), freshReport(mesh35, nil, allTurnSet()), freshReport(torus, nil, parityTurnSet())},
		}, cacheCase[ModeReport]{
			qs:   []Query[ModeReport]{ModeQuery(e, ModeLoop, in, out, nil), ModeQuery(e, ModeLiveness, in, out, nil), ModeQuery(e, ModeEscape, in, out, []int{4})},
			want: []ModeReport{VerifyMode(e, ModeLoop, in, out, nil), VerifyMode(e, ModeLiveness, in, out, nil), VerifyMode(e, ModeEscape, in, out, []int{4})},
		}
}

func TestCacheConcurrent(t *testing.T) {
	// Hammer one cache from many goroutines across a mix of questions;
	// run under -race via `make check`. Every result must match the
	// uncached reference for its question.
	v, m := cacheCases()
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"verify", func(t *testing.T) { hammerCache(t, &VerifyCache{}, v) }},
		{"mode", func(t *testing.T) { hammerCache(t, &ModeCache{}, m) }},
	} {
		t.Run(tc.name, tc.run)
	}
}

func hammerCache[R any](t *testing.T, c *Cache[R], cc cacheCase[R]) {
	qs, want := cc.qs, cc.want
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (w + i) % len(qs)
				got, err := c.Verify(context.Background(), qs[k])
				if err != nil || !reflect.DeepEqual(got, want[k]) {
					select {
					case errs <- fmt.Sprintf("%+v != %+v (err %v)", got, want[k], err):
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s := c.Stats(); s.Hits+s.Misses != 8*20 {
		t.Errorf("stats = %+v, want %d total probes", s, 8*20)
	}
}

func TestCacheEvictionCounting(t *testing.T) {
	// Lower the epoch-flush bound to force evictions; cdg tests run
	// sequentially within the package, so restoring it is safe.
	old := maxCacheEntries
	maxCacheEntries = 2
	defer func() { maxCacheEntries = old }()
	v, m := cacheCases()
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"verify", func(t *testing.T) { countEvictions(t, &VerifyCache{}, v) }},
		{"mode", func(t *testing.T) { countEvictions(t, &ModeCache{}, m) }},
	} {
		t.Run(tc.name, tc.run)
	}
}

func countEvictions[R any](t *testing.T, c *Cache[R], cc cacheCase[R]) {
	series := c.series().evictions.Value()
	for _, q := range cc.qs {
		if _, err := c.Verify(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Misses != 3 || s.Evictions != 2 {
		t.Fatalf("stats = %+v, want 3 misses and 2 evictions (epoch flush at 2 entries)", s)
	}
	if s.Entries != 1 {
		t.Fatalf("entries = %d, want 1 after the flush", s.Entries)
	}
	if got := c.series().evictions.Value() - series; got != 2 {
		t.Fatalf("process-wide eviction series moved by %d, want 2", got)
	}
}

func TestCacheHitAllocFree(t *testing.T) {
	// A hit through a prebuilt query is a map probe: no allocation.
	c := &VerifyCache{}
	q := TurnSetQuery(topology.NewMesh(4, 4), nil, xyTurnSet())
	ctx := context.Background()
	if _, err := c.Verify(ctx, q); err != nil {
		t.Fatal(err)
	}
	if n := mallocs(100, func() { c.Verify(ctx, q) }); n != 0 {
		t.Fatalf("100 cache hits allocated %d times, want 0", n)
	}
}

func TestCacheEntriesGaugeIsDefaultCacheOnly(t *testing.T) {
	// ebda_verify_cache_entries describes DefaultCache; a private cache
	// (a cluster replica's, a test's) must not overwrite it.
	VerifyTurnSetCached(topology.NewMesh(4, 4), nil, xyTurnSet())
	want := int64(DefaultCache.Stats().Entries)
	c := &VerifyCache{}
	for _, net := range []*topology.Network{topology.NewMesh(3, 3), topology.NewMesh(3, 4), topology.NewMesh(5, 3)} {
		cachedVerify(c, net, nil, xyTurnSet())
	}
	var snap bytes.Buffer
	if _, err := SaveSnapshot(c, &snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&VerifyCache{}, &snap); err != nil {
		t.Fatal(err)
	}
	if got := obsCacheEntries.Value(); got != want {
		t.Fatalf("ebda_verify_cache_entries = %d after private-cache traffic, want DefaultCache's %d", got, want)
	}
}
