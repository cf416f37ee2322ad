// Benchmarks for the verification engine and the replicated simulation.
// Each checks its result while timing it. A verification runs serially;
// BenchmarkRunSeedsParallel compares one seed worker against every core,
// so `go test -bench Parallel` shows that scaling on the machine at hand.
package ebda_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ebda/internal/cdg"
	"ebda/internal/core"
	"ebda/internal/paper"
	"ebda/internal/routing"
	"ebda/internal/sim"
	"ebda/internal/topology"
)

// jobsVariants is the seed-worker counts worth timing: the serial baseline
// and every core the host offers (deduplicated on single-core machines).
func jobsVariants() []int {
	n := runtime.GOMAXPROCS(0)
	if n <= 1 {
		return []int{1}
	}
	return []int{1, n}
}

// BenchmarkVerifyMesh32 times full CDG construction + acyclicity of the
// six-channel fully adaptive design on a 32x32 mesh.
func BenchmarkVerifyMesh32(b *testing.B) {
	chain := paper.Figure7P1()
	net := topology.NewMesh(32, 32)
	ts := chain.AllTurns()
	vcs := cdg.VCConfigFor(2, chain.Channels())
	want := cdg.VerifyTurnSet(net, vcs, ts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := cdg.VerifyTurnSet(net, vcs, ts); !rep.Acyclic || rep.Edges != want.Edges {
			b.Fatalf("%s (want %d edges)", rep, want.Edges)
		}
	}
	b.ReportMetric(float64(want.Channels)*float64(b.N)/b.Elapsed().Seconds(), "channels/s")
}

// BenchmarkVerifyRepeated times repeated verification of the six-channel
// fully adaptive design on a fixed 8x8 mesh — the sweep-loop shape the
// fast path targets. "fresh" pays a new workspace per verification (the
// pre-pooling cost), "workspace" reuses one workspace, and "cached"
// answers repeats from the verification cache. Run with -benchmem: the
// workspace variant must allocate far less than fresh, and cached less
// still.
func BenchmarkVerifyRepeated(b *testing.B) {
	chain := paper.Figure7P1()
	net := topology.NewMesh(8, 8)
	ts := chain.AllTurns()
	vcs := cdg.VCConfigFor(2, chain.Channels())
	want := cdg.VerifyTurnSet(net, vcs, ts)
	check := func(b *testing.B, rep cdg.Report) {
		if !rep.Acyclic || rep.Edges != want.Edges {
			b.Fatalf("%s (want %d edges)", rep, want.Edges)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			check(b, cdg.NewWorkspace(net, vcs).VerifyTurnSet(ts))
		}
	})
	b.Run("workspace", func(b *testing.B) {
		b.ReportAllocs()
		ws := cdg.NewWorkspace(net, vcs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			check(b, ws.VerifyTurnSet(ts))
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		cache := &cdg.VerifyCache{}
		ctx := context.Background()
		cache.Verify(ctx, cdg.TurnSetQuery(net, vcs, ts))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, _ := cache.Verify(ctx, cdg.TurnSetQuery(net, vcs, ts))
			check(b, rep)
		}
	})
}

// BenchmarkVerifyShapeMix times verification over a rotation of more
// distinct network shapes than any shape-keyed cache would hold: 2D meshes
// and tori with sides 16..51 under the six-channel fully adaptive design,
// and 3D meshes with sides 8..15 under a 3D chain — the mix a verification
// service sees when every request names a new network. Networks are built
// (and their link lists memoized) before timing, so the loop measures the
// workspace pool, the graph fill, the edge build and the Kahn peel. Run
// with -benchmem: allocations per op stay flat once the pool is warm.
func BenchmarkVerifyShapeMix(b *testing.B) {
	type shape struct {
		net  *topology.Network
		vcs  cdg.VCConfig
		ts   *core.TurnSet
		want cdg.Report
	}
	chain2 := paper.Figure7P1()
	chain3 := core.MustParseChain("PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-]")
	var shapes []shape
	add := func(net *topology.Network, chain *core.Chain) {
		vcs := cdg.VCConfigFor(net.Dims(), chain.Channels())
		ts := chain.AllTurns()
		shapes = append(shapes, shape{net, vcs, ts, cdg.NewWorkspace(net, vcs).VerifyTurnSet(ts)})
	}
	for k := 16; k <= 51; k++ {
		add(topology.NewMesh(k, k), chain2)
		add(topology.NewTorus(k, k), chain2)
	}
	for k := 8; k <= 15; k++ {
		add(topology.NewMesh(k, k, k), chain3)
	}
	// One untimed pass lets the pool grow its buffers to the largest
	// shape, so the timed loop measures the steady state.
	for _, s := range shapes {
		cdg.VerifyTurnSet(s.net, s.vcs, s.ts)
	}
	channels := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := shapes[i%len(shapes)]
		rep := cdg.VerifyTurnSet(s.net, s.vcs, s.ts)
		if rep.Acyclic != s.want.Acyclic || rep.Edges != s.want.Edges {
			b.Fatalf("%s: %s, want %s", s.net, rep, s.want)
		}
		channels += rep.Channels
	}
	b.ReportMetric(float64(channels)/b.Elapsed().Seconds(), "channels/s")
}

// BenchmarkTurnEdges times verification through one warm workspace of the
// designs with the most channel signatures, where the turn-edge build
// weighs most: the Odd-Even design (parity-restricted Y classes) on a
// 32x32 mesh and a 2-VC 3D chain on a 12x12x12 mesh. A signature is a
// channel's dimension, sign and VC plus its tail's coordinate parities;
// edge construction evaluates the turn relation once per signature pair.
func BenchmarkTurnEdges(b *testing.B) {
	cases := []struct {
		name  string
		net   *topology.Network
		chain *core.Chain
	}{
		{"oddeven-32x32", topology.NewMesh(32, 32), paper.Table4Chain()},
		{"3d-2vc-12x12x12", topology.NewMesh(12, 12, 12),
			core.MustParseChain("PA[X1+ Y1* Z1+] -> PB[X1- Y2* Z1-] -> PC[X2* Z2+] -> PD[Z2-]")},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			vcs := cdg.VCConfigFor(c.net.Dims(), c.chain.Channels())
			ts := c.chain.AllTurns()
			ws := cdg.NewWorkspace(c.net, vcs)
			want := ws.VerifyTurnSet(ts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := ws.VerifyTurnSet(ts); rep.Edges != want.Edges || !rep.Acyclic {
					b.Fatalf("%s: %s, want %d edges, acyclic", c.name, rep, want.Edges)
				}
			}
			b.ReportMetric(float64(want.Channels)*float64(b.N)/b.Elapsed().Seconds(), "channels/s")
		})
	}
}

// BenchmarkAddEdges compares incremental single-edge insertion against the
// batched sorted-merge path on interleaved batches (the worst case for
// repeated O(n) inserts).
func BenchmarkAddEdges(b *testing.B) {
	net := topology.NewMesh(8, 8)
	const batchLen = 64
	evens := make([]int32, batchLen)
	odds := make([]int32, batchLen)
	for i := range evens {
		evens[i] = int32(2 * i)
		odds[i] = int32(2*i + 1)
	}
	b.Run("AddEdge", func(b *testing.B) {
		b.ReportAllocs()
		ws := cdg.NewWorkspace(net, nil)
		g := ws.Graph()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws.Reset()
			for _, v := range evens {
				g.AddEdge(0, int(v))
			}
			for _, v := range odds {
				g.AddEdge(0, int(v))
			}
		}
	})
	b.Run("AddEdges", func(b *testing.B) {
		b.ReportAllocs()
		ws := cdg.NewWorkspace(net, nil)
		g := ws.Graph()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws.Reset()
			g.AddEdges(0, evens...)
			g.AddEdges(0, odds...)
		}
	})
}

// BenchmarkRoutingEdges times the Dally routing-relation construction
// (per-destination closure) through the adaptive Figure 7 design and its
// memoizing Candidates.
func BenchmarkRoutingEdges(b *testing.B) {
	net := topology.NewMesh(16, 16)
	chain := paper.Figure7P1()
	vcs := cdg.VCConfigFor(2, chain.Channels())
	want := -1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh algorithm per iteration so the memo warms up inside the
		// timed region, like a first verification.
		alg := routing.NewFromChain("dyxy", chain, 2)
		rep := routing.Verify(net, vcs, alg)
		if !rep.Acyclic || (want >= 0 && rep.Edges != want) {
			b.Fatalf("%s", rep)
		}
		want = rep.Edges
	}
}

// BenchmarkRunSeedsParallel times replicated simulation at each worker
// count: 8 seeds of the fully adaptive design on an 8x8 mesh.
func BenchmarkRunSeedsParallel(b *testing.B) {
	chain := paper.Figure7P1()
	alg := routing.NewFromChain("dyxy", chain, 2)
	cfg := sim.Config{
		Net: topology.NewMesh(8, 8), Alg: alg, VCs: alg.VCs(),
		InjectionRate: 0.2, Seed: 1,
		Warmup: 200, Measure: 800, Drain: 400,
	}
	want := sim.RunSeedsJobs(cfg, 8, 1)
	for _, jobs := range jobsVariants() {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := sim.RunSeedsJobs(cfg, 8, jobs)
				if rep != want {
					b.Fatalf("jobs=%d diverged from serial baseline", jobs)
				}
			}
			b.ReportMetric(8*float64(b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}
