package cdg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// freshReport is the unpooled reference: a brand-new graph and workspace
// state per call, so reuse bugs in the pooled path cannot hide.
func freshReport(net *topology.Network, vcs VCConfig, ts *core.TurnSet) Report {
	return NewWorkspace(net, vcs).VerifyTurnSet(ts)
}

func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	net := topology.NewMesh(5, 4)
	ws := NewWorkspace(net, nil)
	// Alternate acyclic and cyclic turn sets through one workspace; every
	// result must equal a fresh single-use verification, including the
	// extracted cycle.
	sets := []*core.TurnSet{
		xyTurnSet(), allTurnSet(), xyTurnSet(), parityTurnSet(), allTurnSet(),
	}
	for i, ts := range sets {
		got := ws.VerifyTurnSet(ts)
		want := freshReport(net, nil, ts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reuse %d: report %+v, fresh %+v", i, got, want)
		}
	}
}

// TestWorkspaceJobsInvariant: Workspace.VerifyTurnSetCtx, which bench/
// calls with an ignored int argument, answers exactly as VerifyTurnSet.
func TestWorkspaceJobsInvariant(t *testing.T) {
	net := topology.NewMesh(5, 5)
	for name, ts := range map[string]*core.TurnSet{
		"acyclic": xyTurnSet(), "cyclic": allTurnSet(),
	} {
		want := freshReport(net, nil, ts)
		for _, jobs := range benchJobs {
			got, err := NewWorkspace(net, nil).VerifyTurnSetCtx(context.Background(), ts, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s jobs=%d: %+v, want %+v", name, jobs, got, want)
			}
		}
	}
}

func TestWorkspaceVerifyRelation(t *testing.T) {
	net := topology.NewMesh(4, 4)
	ws := NewWorkspace(net, nil)
	rep := ws.VerifyRelation(xyRoute, "4x4 mesh / dor")
	if !rep.Acyclic {
		t.Fatalf("dimension-order routing must be acyclic: %s", rep)
	}
	if rep.Network != "4x4 mesh / dor" {
		t.Errorf("Network = %q, want the caller-supplied name", rep.Network)
	}
	// Reference: unpooled construction.
	g := NewGraph(net, nil)
	g.AddRoutingEdges(xyRoute)
	if rep.Edges != g.NumEdges() {
		t.Errorf("edges = %d, want %d", rep.Edges, g.NumEdges())
	}
	// Reuse after a routing build must still be clean.
	again := ws.VerifyTurnSet(xyTurnSet())
	want := freshReport(net, nil, xyTurnSet())
	if !reflect.DeepEqual(again, want) {
		t.Errorf("turn-set verify after routing verify: %+v, want %+v", again, want)
	}
}

func TestWorkspacePoolReuse(t *testing.T) {
	pool := &WorkspacePool{}
	net := topology.NewMesh(3, 3)
	ws := pool.Get(net, nil)
	pool.Put(ws)
	if got := pool.Get(net, nil); got != ws {
		t.Error("pool did not reuse the returned workspace")
	}
	// Equivalent VC configurations share a shape.
	pool.Put(ws)
	if got := pool.Get(net, VCConfig{1, 1}); got != ws {
		t.Error("nil and explicit all-ones VCConfig must share workspaces")
	}
	// Any other shape rebinds the idle workspace rather than building a
	// new one: a different VC configuration, then a distinct network.
	pool.Put(ws)
	if got := pool.Get(net, Uniform(2, 2)); got != ws || got.Graph().NumChannels() != 2*24 {
		t.Error("different VC configuration did not rebind the idle workspace")
	}
	pool.Put(ws)
	other := topology.NewTorus(4, 3, 2)
	if got := pool.Get(other, nil); got != ws || got.Graph().Net() != other {
		t.Error("distinct network did not rebind the idle workspace")
	}
	// An idle workspace already bound to the requested shape wins over
	// the most recently returned one, and at most GOMAXPROCS stay idle.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	fresh := pool.Get(net, nil)
	pool.Put(ws)
	pool.Put(fresh)
	if got := pool.Get(other, nil); got != ws {
		t.Error("pool rebound a workspace while one bound to the shape was idle")
	}
	pool.Put(ws)
	pool.Put(NewWorkspace(net, nil))
	if len(pool.free) != 2 {
		t.Errorf("pool keeps %d idle workspaces, want GOMAXPROCS = 2", len(pool.free))
	}
}

// sameGraph fails unless got (a rebound graph) holds exactly want's
// channel tables and edges. Empty rows compare equal whether nil or
// truncated, since rebinding keeps their capacity.
func sameGraph(t *testing.T, step int, got, want *Graph) {
	t.Helper()
	rows := func(name string, a, b [][]int32) {
		if len(a) != len(b) {
			t.Fatalf("step %d: %s has %d rows, want %d", step, name, len(a), len(b))
		}
		for i := range a {
			if len(a[i]) != len(b[i]) || (len(a[i]) > 0 && !reflect.DeepEqual(a[i], b[i])) {
				t.Fatalf("step %d: %s[%d] = %v, want %v", step, name, i, a[i], b[i])
			}
		}
	}
	if got.net != want.net || got.maxVC != want.maxVC || got.edges != want.edges ||
		!reflect.DeepEqual(got.vcs, want.vcs) || !reflect.DeepEqual(got.channels, want.channels) ||
		!reflect.DeepEqual(got.tailIndex, want.tailIndex) || !reflect.DeepEqual(got.sig, want.sig) ||
		!reflect.DeepEqual(got.sigs, want.sigs) || !reflect.DeepEqual(got.par, want.par) ||
		!reflect.DeepEqual(got.tailOff, want.tailOff) || !reflect.DeepEqual(got.headOff, want.headOff) ||
		!reflect.DeepEqual(got.headIdx, want.headIdx) || !reflect.DeepEqual(got.head, want.head) {
		t.Fatalf("step %d: rebound graph tables differ from a fresh graph of %s", step, want.net)
	}
	rows("adj", got.adj, want.adj)
}

// cancelAfter is a context whose Err turns to context.Canceled after n
// calls, so a verification can be cancelled between its Kahn rounds,
// after the graph build has filled the workspace.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// randomTurnSet draws a 90-degree turn relation over every class of the
// VC configuration: dimension-ordered (acyclic on meshes) or a random
// subset, sparse or dense (usually cyclic).
func randomTurnSet(rng *rand.Rand, dims int, vcs VCConfig) *core.TurnSet {
	var classes []channel.Class
	for d := 0; d < dims; d++ {
		for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
			for vc := 1; vc <= vcs.VCs(channel.Dim(d)); vc++ {
				classes = append(classes, channel.NewVC(channel.Dim(d), sign, vc))
			}
		}
	}
	mode := rng.Intn(3)
	p := []float64{1, 0.3, 0.8}[mode]
	ts := core.NewTurnSet()
	for _, a := range classes {
		for _, b := range classes {
			if a.Dim == b.Dim || (mode == 0 && a.Dim > b.Dim) || rng.Float64() >= p {
				continue
			}
			ts.Add(a, b, core.ByTheorem1)
		}
	}
	return ts
}

// TestWorkspacePoolRebindMatchesFresh drives one pooled workspace through
// a seeded sequence of shapes — 2D and 3D, mesh and torus, 1-3 VCs per
// dimension, growing and shrinking, sometimes the same network with new
// VCs — interleaving turn-set verifications,
// routing-relation verifications and turn-set verifications cancelled
// between Kahn rounds. Every report and every rebound graph must equal a
// fresh workspace's.
func TestWorkspacePoolRebindMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := &WorkspacePool{}
	first := pool.Get(topology.NewMesh(2, 2), nil)
	pool.Put(first)
	var acyclic, cyclic, relations, cancelled int
	var net *topology.Network
	for step := 0; step < 80; step++ {
		// A quarter of the steps keep the network and redraw only the
		// VCs, so a bound network alone never passes for a bound shape.
		if net == nil || rng.Intn(4) > 0 {
			sizes := make([]int, 2+rng.Intn(2))
			for d := range sizes {
				sizes[d] = 2 + rng.Intn(10-3*(len(sizes)-2))
			}
			net = topology.NewMesh(sizes...)
			if rng.Intn(2) == 0 {
				net = topology.NewTorus(sizes...)
			}
		}
		dims := net.Dims()
		var vcs VCConfig
		if rng.Intn(4) > 0 {
			vcs = make(VCConfig, dims)
			for d := range vcs {
				vcs[d] = 1 + rng.Intn(3)
			}
		}
		rng.Intn(3) // keeps the seeded sequence of shapes and operations
		ws := pool.Get(net, vcs)
		if ws != first {
			t.Fatalf("step %d: pool handed out a second workspace", step)
		}
		ref := NewWorkspace(net, vcs)
		var got, want Report
		switch op := rng.Intn(6); {
		case op == 0:
			name := fmt.Sprintf("%s / dor", net)
			got = ws.VerifyRelation(xyRoute, name)
			want = ref.VerifyRelation(xyRoute, name)
			relations++
		case op == 1:
			ts := randomTurnSet(rng, dims, vcs)
			rep, err := ws.verify(&cancelAfter{context.Background(), 1 + rng.Intn(3)}, ts)
			if err == nil {
				got, want = rep, ref.VerifyTurnSet(ts)
				break
			}
			if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(rep, Report{}) {
				t.Fatalf("step %d: cancelled verify = %+v, %v", step, rep, err)
			}
			cancelled++
			pool.Put(ws)
			continue
		default:
			ts := randomTurnSet(rng, dims, vcs)
			got = ws.VerifyTurnSet(ts)
			want = ref.VerifyTurnSet(ts)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s, vcs %v): pooled %+v, fresh %+v", step, net, vcs, got, want)
		}
		sameGraph(t, step, ws.Graph(), ref.Graph())
		if got.Acyclic {
			acyclic++
		} else {
			cyclic++
		}
		pool.Put(ws)
	}
	if acyclic == 0 || cyclic == 0 || relations == 0 || cancelled == 0 {
		t.Errorf("sequence missed a case: %d acyclic, %d cyclic, %d relations, %d cancelled",
			acyclic, cyclic, relations, cancelled)
	}
}

// TestWorkspacePoolRebindAllocs pins the rebind's allocation profile: once
// a pooled workspace has grown on a larger shape, verifying smaller shapes
// of any size through the pool costs the same small number of allocations
// (the report's network name, the build's worker bookkeeping), not one per
// channel. Every side has two digits, so the names cost the same.
func TestWorkspacePoolRebindAllocs(t *testing.T) {
	pool := &WorkspacePool{}
	ws := pool.Get(topology.NewTorus(48, 48), nil)
	ws.VerifyTurnSet(allTurnSet()) // every row grows to its torus degree
	pool.Put(ws)
	ts := xyTurnSet()
	ts.Matrix()
	allocs := func(a, b *topology.Network) float64 {
		return testing.AllocsPerRun(20, func() {
			for _, net := range []*topology.Network{a, b} {
				ws := pool.Get(net, nil)
				if rep := ws.VerifyTurnSet(ts); !rep.Acyclic {
					t.Fatalf("XY on %s: %s", net, rep)
				}
				pool.Put(ws)
			}
		})
	}
	small := allocs(topology.NewMesh(10, 10), topology.NewMesh(12, 11))
	large := allocs(topology.NewMesh(40, 40), topology.NewMesh(45, 38))
	// Equal without the race detector; its runtime adds the odd
	// allocation either side.
	if large > small+2 || large > 32 {
		t.Errorf("allocs per two rebinding verifies: %v on small meshes, %v on large; want equal and <= 32",
			small, large)
	}
}

func TestAddEdgesBatch(t *testing.T) {
	net := topology.NewMesh(3, 3)
	a := NewGraph(net, nil)
	b := NewGraph(net, nil)
	// Batched insertion must match the incremental path for unsorted
	// input, interleaved batches, and merges below the current maximum.
	batches := [][]int32{
		{9, 2, 7},
		{5},
		{4, 3, 11},
		{1, 10},
	}
	for _, batch := range batches {
		for _, v := range batch {
			a.AddEdge(5, int(v))
		}
		b.AddEdges(5, append([]int32(nil), batch...)...)
	}
	b.AddEdges(7) // empty batch is a no-op
	if !reflect.DeepEqual(a.Succs(5), b.Succs(5)) {
		t.Errorf("AddEdges row = %v, AddEdge row = %v", b.Succs(5), a.Succs(5))
	}
	if a.NumEdges() != b.NumEdges() {
		t.Errorf("edge counts diverge: %d vs %d", a.NumEdges(), b.NumEdges())
	}
}

func TestMergeSorted(t *testing.T) {
	cases := []struct {
		row, batch, want []int32
	}{
		{nil, nil, nil},
		{nil, []int32{3, 5}, []int32{3, 5}},
		{[]int32{1, 4}, nil, []int32{1, 4}},
		{[]int32{1, 4}, []int32{4, 9}, []int32{1, 4, 4, 9}},
		{[]int32{5, 8}, []int32{1, 6, 9}, []int32{1, 5, 6, 8, 9}},
		{[]int32{2, 3, 7}, []int32{1, 1, 8}, []int32{1, 1, 2, 3, 7, 8}},
	}
	for _, tc := range cases {
		row := append([]int32(nil), tc.row...)
		got := mergeSorted(row, tc.batch)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("mergeSorted(%v, %v) = %v, want %v", tc.row, tc.batch, got, tc.want)
		}
	}
}

// TestVerifyDesignAllocsFlat pins the turn-edge kernel's allocation
// profile: once a pooled workspace has grown, verifying another design
// costs the same small number of allocations whatever the design's class
// count (4 to 8 classes, plain, parity-restricted and 2-VC) and whatever
// the network's channel count. The signature table is workspace scratch,
// so nothing in it is allocated per channel, per class or per verification.
func TestVerifyDesignAllocsFlat(t *testing.T) {
	oddEven := core.MustChain(
		core.MustPartition("PA", channel.New(channel.X, channel.Minus),
			channel.NewParity(channel.Y, channel.Plus, channel.X, channel.Even),
			channel.NewParity(channel.Y, channel.Minus, channel.X, channel.Even)),
		core.MustPartition("PB", channel.New(channel.X, channel.Plus),
			channel.NewParity(channel.Y, channel.Plus, channel.X, channel.Odd),
			channel.NewParity(channel.Y, channel.Minus, channel.X, channel.Odd)),
	).AllTurns()
	designs := []*core.TurnSet{
		xyTurnSet(),
		oddEven,
		core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]").AllTurns(),
		core.MustParseChain("PA[X1+ X2+ Y1+ Y2+] -> PB[X1- X2- Y1- Y2-]").AllTurns(),
	}
	vcs := VCConfig{2, 2}
	pool := &WorkspacePool{}
	ws := pool.Get(topology.NewTorus(48, 48), vcs)
	for _, ts := range designs {
		ws.VerifyTurnSet(ts) // grow every buffer on the largest shape
	}
	pool.Put(ws)
	var counts []float64
	for _, net := range []*topology.Network{topology.NewMesh(10, 10), topology.NewMesh(40, 40), topology.NewMesh(45, 38)} {
		for _, ts := range designs {
			counts = append(counts, testing.AllocsPerRun(10, func() {
				ws := pool.Get(net, vcs)
				if rep := ws.VerifyTurnSet(ts); !rep.Acyclic {
					t.Fatalf("chain design cyclic on %s: %s", net, rep)
				}
				pool.Put(ws)
			}))
		}
	}
	// Equal without the race detector; its runtime adds the odd
	// allocation either side.
	lo, hi := slices.Min(counts), slices.Max(counts)
	if hi > lo+2 || hi > 12 {
		t.Errorf("allocs per verify across designs and shapes: %v; want equal and <= 12", counts)
	}
}

// TestJoblessDefaultsAllocsFlat pins the package-level entry points that
// take no worker argument, VerifyTurnSet and VerifyMode, to the same
// small allocation budget as TestVerifyDesignAllocsFlat on a multi-core
// host. A verification that handed each Kahn round to goroutines would
// allocate per round instead. testing.AllocsPerRun pins GOMAXPROCS to 1,
// so allocations are counted from runtime.MemStats under GOMAXPROCS(2).
func TestJoblessDefaultsAllocsFlat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	allocsPerRun := func(f func()) uint64 {
		const runs = 10
		f() // warm the workspace pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs
	}
	net := topology.NewMesh(32, 32)
	chain := core.MustParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	ts, vcs := chain.AllTurns(), VCConfigFor(net.Dims(), chain.Channels())
	verify := allocsPerRun(func() {
		if rep := VerifyTurnSet(net, vcs, ts); !rep.Acyclic {
			t.Fatalf("chain design cyclic on %s: %s", net, rep)
		}
	})
	// A layered graph peels one 4-wide layer per round.
	const layers, width = 64, 4
	e := NewEdgeSet(layers * width)
	for l := 0; l+1 < layers; l++ {
		for a := 0; a < width; a++ {
			for b := 0; b < width; b++ {
				e.AddEdge(l*width+a, (l+1)*width+b)
			}
		}
	}
	mode := allocsPerRun(func() {
		if rep := VerifyMode(e, ModeLoop, nil, nil, nil); !rep.OK {
			t.Fatalf("layered graph: %+v", rep)
		}
	})
	if verify > 12 || mode > 12 {
		t.Errorf("allocs per call under GOMAXPROCS(2): VerifyTurnSet %d, VerifyMode %d; want <= 12", verify, mode)
	}
}
