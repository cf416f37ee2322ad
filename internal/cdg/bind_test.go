package cdg

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// bindNetworks are the enumeration oracle's networks: meshes and tori
// (2-ary wraparound dimensions included) in 1 to 4 dimensions, irregular,
// partially connected 3D and faulty copies.
func bindNetworks() []*topology.Network {
	mesh := topology.NewMesh(5, 4)
	torus := topology.NewTorus(4, 3)
	return []*topology.Network{
		mesh, torus, topology.NewTorus(2, 2), topology.NewTorus(2, 5),
		topology.NewMesh(3, 2, 4), topology.NewTorus(3, 2, 2),
		topology.NewIrregular("irregular", []int{4, 4}, func(from topology.Coord, d channel.Dim, s channel.Sign) bool {
			return (from[0]*3+from[1]*5+int(d)*7+int(s))%4 != 0
		}),
		topology.NewPartialMesh3D(3, 3, 2, [][2]int{{1, 1}, {0, 2}}),
		mesh.WithoutLinks([]topology.Link{
			{From: 6, Dim: channel.X, Sign: channel.Plus},
			{From: 7, Dim: channel.Y, Sign: channel.Minus},
		}),
		torus.WithoutLinks([]topology.Link{{From: 3, Dim: channel.X, Sign: channel.Plus}}),
		topology.NewTorus(2, 3, 2, 2), topology.NewMesh(2, 3, 2, 3), topology.NewTorus(5), topology.NewMesh(2),
		topology.NewTorus(2, 2).WithoutLinks([]topology.Link{
			{From: 0, Dim: channel.X, Sign: channel.Minus},
			{From: 3, Dim: channel.Y, Sign: channel.Plus},
		}),
		topology.NewTorus(3, 2, 2, 3).WithoutLinks([]topology.Link{
			{From: 5, Dim: channel.Dim(3), Sign: channel.Minus},
			{From: 5, Dim: channel.Dim(1), Sign: channel.Plus},
		}),
	}
}

// checkBinding holds a bound graph against brute force over Links():
// Channel(i) is every link expanded by VC in order, each node's in-list
// and out-range equal a filter over that table, and FindChannel finds
// exactly the enumerated channels (VCs and dimensions beyond the
// configuration miss).
func checkBinding(t *testing.T, g *Graph, net *topology.Network, vcs VCConfig) {
	t.Helper()
	var want []Channel
	for _, l := range net.Links() {
		for vc := 1; vc <= vcs.VCs(l.Dim); vc++ {
			want = append(want, Channel{Link: l, VC: vc, Index: len(want)})
		}
	}
	if g.NumChannels() != len(want) {
		t.Fatalf("%s vcs %v: %d channels, want %d", net, vcs, g.NumChannels(), len(want))
	}
	for i, ch := range want {
		if got := g.Channel(i); got != ch {
			t.Fatalf("%s vcs %v: Channel(%d) = %+v, want %+v", net, vcs, i, got, ch)
		}
	}
	var into []int32
	for v := topology.NodeID(0); int(v) < net.Nodes(); v++ {
		var wantInto, out []int32
		for i, ch := range want {
			if ch.Link.To == v {
				wantInto = append(wantInto, int32(i))
			}
			if ch.Link.From == v {
				out = append(out, int32(i))
			}
		}
		if into = g.appendInto(into[:0], v); !slices.Equal(into, wantInto) {
			t.Fatalf("%s vcs %v: into(n%d) = %v, want %v", net, vcs, v, into, wantInto)
		}
		lo, hi := g.outRange(v)
		var got []int32
		for b := lo; b < hi; b++ {
			got = append(got, b)
		}
		if !slices.Equal(got, out) {
			t.Fatalf("%s vcs %v: outRange(n%d) = [%d, %d), want %v", net, vcs, v, lo, hi, out)
		}
		for d := 0; d <= net.Dims(); d++ {
			for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
				for vc := 0; vc <= 4; vc++ {
					ch, ok := g.FindChannel(v, channel.Dim(d), sign, vc)
					i := slices.IndexFunc(want, func(c Channel) bool {
						return c.Link.From == v && c.Link.Dim == channel.Dim(d) && c.Link.Sign == sign && c.VC == vc
					})
					if ok != (i >= 0) || (ok && ch != want[i]) {
						t.Fatalf("%s vcs %v: FindChannel(n%d, %s%s, %d) = %v, %v; want index %d",
							net, vcs, v, channel.Dim(d), sign, vc, ch, ok, i)
					}
				}
			}
		}
	}
}

// TestBindMatchesLinks is the enumeration oracle: on every network, with
// uniform and mixed 1-3 VCs per dimension, a fresh graph and one graph
// rebound across all of them in turn (so larger shapes, smaller shapes
// and the same network with new VCs follow each other) must both agree
// with brute force. A second graph then rebinds across the shapes in a
// shuffled order, and each binding must equal a fresh graph's tables.
func TestBindMatchesLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rebound := NewGraph(topology.NewTorus(6, 6, 3), Uniform(3, 3))
	type shape struct {
		net *topology.Network
		vcs VCConfig
	}
	var shapes []shape
	for _, net := range bindNetworks() {
		for rep := 0; rep < 3; rep++ {
			vcs := make(VCConfig, net.Dims())
			for d := range vcs {
				vcs[d] = 1 + rng.Intn(3)
			}
			if rep == 0 {
				vcs = nil
			}
			checkBinding(t, NewGraph(net, vcs), net, vcs)
			rebound.bind(net, vcs)
			checkBinding(t, rebound, net, vcs)
			shapes = append(shapes, shape{net, vcs})
		}
	}
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	g := NewGraph(topology.NewMesh(2, 2), nil)
	for step, s := range shapes {
		g.bind(s.net, s.vcs)
		sameGraph(t, step, g, NewGraph(s.net, s.vcs))
	}
}

// TestVerifyKeyIrregularMatchesLinks pins the verify key of irregular
// networks to the link-list hash it had when it read Links(): the walk
// feeds the same words in the same order.
func TestVerifyKeyIrregularMatchesLinks(t *testing.T) {
	ts := xyTurnSet()
	for _, net := range bindNetworks() {
		vcs := Uniform(net.Dims(), 2)
		key, check := verifyKey(net, vcs, ts)
		wantKey, wantCheck := verifyKeyFromLinks(net, vcs, ts)
		if key != wantKey || check != wantCheck {
			t.Errorf("%s: verifyKey = %x/%x, want %x/%x from Links()", net, key, check, wantKey, wantCheck)
		}
	}
}

// verifyKeyFromLinks is verifyKey as it hashed irregular networks from
// the materialised link list.
func verifyKeyFromLinks(net *topology.Network, vcs VCConfig, ts *core.TurnSet) (key, check uint64) {
	h1 := uint64(0x9e3779b97f4a7c15)
	h2 := uint64(0xc2b2ae3d27d4eb4f)
	put := func(v uint64) {
		h1 = mix64(h1 ^ v)
		h2 = mix64(h2*0x100000001b3 + v)
	}
	name := net.Name()
	put(uint64(len(name)))
	for i := 0; i < len(name); i++ {
		put(uint64(name[i]))
	}
	put(uint64(net.Dims()))
	for d := 0; d < net.Dims(); d++ {
		put(uint64(net.Size(channel.Dim(d))))
		if net.Wrap(channel.Dim(d)) {
			put(1)
		} else {
			put(0)
		}
		put(uint64(vcs.VCs(channel.Dim(d))))
	}
	if !net.Regular() {
		links := net.Links()
		put(uint64(len(links)))
		for _, l := range links {
			put(uint64(uint32(l.From))<<32 | uint64(uint32(l.To)))
			w, s := uint64(0), uint64(0)
			if l.Wrap {
				w = 1
			}
			if l.Sign == channel.Minus {
				s = 1
			}
			put(uint64(l.Dim)<<2 | s<<1 | w)
		}
	}
	f1, f2 := ts.Fingerprint()
	put(f1)
	put(f2)
	return h1, h2
}

// rebindNetworks returns never-seen networks for the warm rebind
// sequences: 32 2D meshes from 20x40 to 51x9, with a 3D mesh and a
// faulty mesh, whose class keys carry cut links, as the second and
// third. Every call builds new networks.
func rebindNetworks() []*topology.Network {
	nets := make([]*topology.Network, 0, 34)
	for i := 0; i < 32; i++ {
		nets = append(nets, topology.NewMesh(20+i, 40-i))
	}
	return slices.Insert(nets, 1, topology.NewMesh(10, 12, 14), faultyMesh())
}

// faultyMesh returns a new 30x30 mesh with three links removed.
func faultyMesh() *topology.Network {
	return topology.NewMesh(30, 30).WithoutLinks([]topology.Link{
		{From: 31, Dim: channel.X, Sign: channel.Plus},
		{From: 400, Dim: channel.Y, Sign: channel.Minus},
		{From: 899, Dim: channel.X, Sign: channel.Minus},
	})
}

// mallocs calls f n times under GOMAXPROCS(1) and returns the number of
// heap allocations the n calls made in total. testing.AllocsPerRun divides
// that total by n in integers, so it reads 0 for up to n-1 stray
// allocations; here every one counts. It makes no warm-up call: a test
// writes its warm-up out.
//
// The count is process-wide, so the collector is off for the calls: that
// leaves the runtime's background scavenger no goal, and it parks instead
// of re-arming its sleep timer, whose insertion into the timer heap
// (runtime.(*timers).addHeap) can allocate inside the measured window.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestBindFreshNetworkAllocFree pins the cold path's set-up cost: a warm
// pooled workspace rebinds to a never-seen network whose shape fits its
// buffers without allocating anything. The workspace first meets one 3D
// mesh and one faulty mesh, so its class and signature tables have grown
// for both kinds; the sequence then crosses 2D, 3D and faulty networks.
func TestBindFreshNetworkAllocFree(t *testing.T) {
	pool := &WorkspacePool{}
	vcs := VCConfig{2, 2}
	pool.Put(pool.Get(topology.NewTorus(48, 48), vcs))
	pool.Put(pool.Get(topology.NewMesh(10, 12, 14), vcs))
	pool.Put(pool.Get(faultyMesh(), vcs))
	nets := rebindNetworks()
	next := 0
	if n := mallocs(20, func() {
		ws := pool.Get(nets[next], vcs)
		next++
		pool.Put(ws)
	}); n != 0 {
		t.Errorf("rebinding a warm workspace to 20 fresh networks: %d allocs, want 0", n)
	}
}

// coldShape draws a network shaped like the cold verification mix: 2D
// sides 16..64 (a quarter of them tori) and 10% 3D meshes with sides
// 8..16.
func coldShape(rng *rand.Rand) *topology.Network {
	if rng.Intn(10) == 0 {
		return topology.NewMesh(8+rng.Intn(9), 8+rng.Intn(9), 8+rng.Intn(9))
	}
	x, y := 16+rng.Intn(49), 16+rng.Intn(49)
	if rng.Intn(4) == 0 {
		return topology.NewTorus(x, y)
	}
	return topology.NewMesh(x, y)
}

// BenchmarkBind times binding one graph to a seeded sequence of
// never-seen networks from coldShape with 1-2 VCs per dimension.
// Networks are built in batches with the timer stopped, so each bind
// meets a network nothing has enumerated yet.
func BenchmarkBind(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type shape struct {
		net *topology.Network
		vcs VCConfig
	}
	draw := func() shape {
		net := coldShape(rng)
		vcs := make(VCConfig, net.Dims())
		for d := range vcs {
			vcs[d] = 1 + rng.Intn(2)
		}
		return shape{net, vcs}
	}
	g := NewGraph(topology.NewTorus(64, 64), Uniform(2, 2))
	g.bind(topology.NewTorus(16, 16, 16), Uniform(3, 2))
	batch := make([]shape, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(batch) == 0 {
			b.StopTimer()
			for k := range batch {
				batch[k] = draw()
			}
			b.StartTimer()
		}
		s := batch[i%len(batch)]
		g.bind(s.net, s.vcs)
	}
}

// coldDesigns are the designs BenchmarkVerifyColdShapes rotates over,
// by dimension count: 2D chains on one and two VCs per dimension, and a
// 3D chain.
var coldDesigns = [2][]string{
	{"PA[X-] -> PB[X+ Y+ Y-]", "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]", "PA[X1+ X2+ Y1+ Y2+] -> PB[X1- X2- Y1- Y2-]"},
	{"PA[X- Y- Z-] -> PB[X+ Y+ Z+]"},
}

// BenchmarkVerifyColdShapes is the in-process measure of a cold
// verification: every iteration verifies a design through a pool on a
// network no earlier iteration used, so the workspace rebinds, builds the
// turn edges and peels each time. Networks come from coldShape, built in
// batches with the timer stopped.
func BenchmarkVerifyColdShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type design struct {
		ts  *core.TurnSet
		vcs VCConfig
	}
	var designs [2][]design
	for i, specs := range coldDesigns {
		for _, spec := range specs {
			chain := core.MustParseChain(spec)
			designs[i] = append(designs[i], design{chain.AllTurns(), VCConfigFor(2+i, chain.Channels())})
		}
	}
	pool := &WorkspacePool{}
	pool.Put(pool.Get(topology.NewTorus(64, 64), Uniform(2, 2)))
	batch := make([]*topology.Network, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(batch) == 0 {
			b.StopTimer()
			for k := range batch {
				batch[k] = coldShape(rng)
			}
			b.StartTimer()
		}
		net := batch[i%len(batch)]
		ds := designs[net.Dims()-2]
		d := ds[i%len(ds)]
		ws := pool.Get(net, d.vcs)
		ws.VerifyTurnSet(d.ts)
		pool.Put(ws)
	}
}

// TestColdVerifyAllocFree pins the cold path's kernel: once a workspace
// has grown on a larger shape, rebinding it to a never-seen network of
// equal or smaller size, building a design's turn edges and peeling them
// allocates nothing. (A Report adds its network label on top.) The
// sequence crosses 2D, 3D and faulty meshes; the workspace has met one
// of each of the latter two first.
func TestColdVerifyAllocFree(t *testing.T) {
	chain := core.MustParseChain(coldDesigns[0][1])
	ts, vcs := chain.AllTurns(), VCConfigFor(2, chain.Channels())
	ws := NewWorkspace(topology.NewTorus(48, 48), vcs)
	ws.VerifyTurnSet(ts) // grow every buffer on the largest shape
	for _, net := range []*topology.Network{topology.NewMesh(10, 12, 14), faultyMesh()} {
		ws.g.bind(net, vcs)
		ws.VerifyTurnSet(ts)
	}
	nets := rebindNetworks()
	next := 0
	if n := mallocs(20, func() {
		ws.g.bind(nets[next], vcs)
		next++
		ws.Reset()
		ws.g.AddTurnEdges(ts)
		if peeled, _ := kahnPeel(context.Background(), &ws.g.adj, &ws.st); peeled != ws.g.NumChannels() {
			t.Fatalf("%s on %s: peeled %d of %d", chain, ws.g.net, peeled, ws.g.NumChannels())
		}
	}); n != 0 {
		t.Errorf("rebind, edge build and peel on a warm workspace, 20 networks: %d allocs, want 0", n)
	}

	// A cyclic design adds the residual DFS, whose frame stack lives in
	// the workspace too: the witness cycle is the only allocation.
	turns, err := core.ParseTurnList("X+>Y+,Y+>X-,X->Y-,Y->X+")
	if err != nil {
		t.Fatal(err)
	}
	cyclic := core.NewTurnSet()
	for _, tn := range turns {
		cyclic.Add(tn.From, tn.To, core.ByTheorem1)
	}
	cyclicVerify := func(net *topology.Network) {
		ws.g.bind(net, nil)
		ws.Reset()
		ws.g.AddTurnEdges(cyclic)
		if peeled, _ := kahnPeel(context.Background(), &ws.g.adj, &ws.st); peeled == ws.g.NumChannels() {
			t.Fatalf("cyclic turn list on %s peeled every channel", ws.g.net)
		}
		if cyc := findCycleResidual(&ws.g.adj, &ws.st); len(cyc) == 0 {
			t.Fatalf("cyclic turn list on %s: no witness", ws.g.net)
		}
	}
	for _, net := range nets {
		cyclicVerify(net) // grow the DFS scratch on every shape
	}
	next = 0
	if n := mallocs(20, func() {
		cyclicVerify(nets[next])
		next++
	}); n != 20 {
		t.Errorf("rebind, edge build, peel and residual DFS of a cyclic design, 20 networks: %d allocs, want 20 (one witness each)", n)
	}
}
