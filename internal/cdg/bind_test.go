package cdg

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// bindNetworks are the enumeration oracle's networks: meshes and tori
// (2-ary wraparound dimensions included), 3D, irregular, partially
// connected 3D and faulty copies.
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
	}
}

// checkBinding holds a bound graph against brute force over Links():
// the channel table is every link expanded by VC in order, each node's
// in-list and out-range equal a filter over the channel table, and
// FindChannel finds exactly the enumerated channels.
func checkBinding(t *testing.T, g *Graph, net *topology.Network, vcs VCConfig) {
	t.Helper()
	var want []Channel
	for _, l := range net.Links() {
		for vc := 1; vc <= vcs.VCs(l.Dim); vc++ {
			want = append(want, Channel{Link: l, VC: vc, Index: len(want)})
		}
	}
	if !reflect.DeepEqual(g.Channels(), want) {
		t.Fatalf("%s vcs %v: Channels() differs from Links() expanded by VC", net, vcs)
	}
	for v := topology.NodeID(0); int(v) < net.Nodes(); v++ {
		var into, out []int32
		for i, ch := range want {
			if ch.Link.To == v {
				into = append(into, int32(i))
			}
			if ch.Link.From == v {
				out = append(out, int32(i))
			}
		}
		if got := g.into(v); !slices.Equal(got, into) {
			t.Fatalf("%s vcs %v: into(n%d) = %v, want %v", net, vcs, v, got, into)
		}
		lo, hi := g.outRange(v)
		var got []int32
		for b := lo; b < hi; b++ {
			got = append(got, b)
		}
		if !slices.Equal(got, out) {
			t.Fatalf("%s vcs %v: outRange(n%d) = [%d, %d), want %v", net, vcs, v, lo, hi, out)
		}
		for d := 0; d < net.Dims(); d++ {
			for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
				for vc := 1; vc <= 3; vc++ {
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
	for i, ch := range want {
		if g.head[i] != int32(ch.Link.To) {
			t.Fatalf("%s vcs %v: head[%d] = %d, want %d", net, vcs, i, g.head[i], ch.Link.To)
		}
	}
}

// TestBindMatchesLinks is the enumeration oracle: on every network, with
// 1-3 VCs per dimension, a fresh graph and one graph rebound across all
// of them in turn (so larger shapes, smaller shapes and the same network
// with new VCs follow each other) must both agree with brute force.
func TestBindMatchesLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rebound := NewGraph(topology.NewTorus(6, 6, 3), Uniform(3, 3))
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
		}
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

// TestBindFreshNetworkAllocFree pins the cold path's set-up cost: a warm
// pooled workspace rebinds to a never-seen network whose shape fits its
// buffers without allocating anything.
func TestBindFreshNetworkAllocFree(t *testing.T) {
	pool := &WorkspacePool{}
	vcs := VCConfig{2, 2}
	pool.Put(pool.Get(topology.NewTorus(48, 48), vcs))
	nets := make([]*topology.Network, 0, 32)
	for i := 0; i < cap(nets); i++ {
		nets = append(nets, topology.NewMesh(20+i, 40-i))
	}
	next := 0
	allocs := testing.AllocsPerRun(20, func() {
		ws := pool.Get(nets[next], vcs)
		next++
		pool.Put(ws)
	})
	if allocs != 0 {
		t.Errorf("rebinding a warm workspace to a fresh network: %v allocs, want 0", allocs)
	}
}

// BenchmarkBind times binding one graph to a seeded sequence of
// never-seen networks shaped like the cold verification mix: 2D sides
// 16..64 (a quarter of them tori) and 10% 3D meshes with sides 8..16,
// 1-2 VCs per dimension. Networks are built in batches with the timer
// stopped, so each bind meets a network nothing has enumerated yet.
func BenchmarkBind(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type shape struct {
		net *topology.Network
		vcs VCConfig
	}
	draw := func() shape {
		var sizes []int
		if rng.Intn(10) == 0 {
			sizes = []int{8 + rng.Intn(9), 8 + rng.Intn(9), 8 + rng.Intn(9)}
		} else {
			sizes = []int{16 + rng.Intn(49), 16 + rng.Intn(49)}
		}
		net := topology.NewMesh(sizes...)
		if len(sizes) == 2 && rng.Intn(4) == 0 {
			net = topology.NewTorus(sizes...)
		}
		vcs := make(VCConfig, len(sizes))
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
