package cdg

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/partstrat"
	"ebda/internal/topology"
)

// quotientDesign is one design of the soundness grid.
type quotientDesign struct {
	name string
	dims int
	vcs  VCConfig
	ts   *core.TurnSet
}

func chainDesign(dims int, chain *core.Chain, ui bool) quotientDesign {
	opts := core.DefaultTurnOptions
	opts.UITurns = ui
	return quotientDesign{
		name: fmt.Sprintf("%s ui=%t", chain.PlainString(), ui),
		dims: dims,
		vcs:  VCConfigFor(dims, chain.Channels()),
		ts:   chain.Turns(opts),
	}
}

// quotientChainDesigns returns the partstrat chains of verify_cold's pools
// (2D VC budgets up to 2x2, 3D up to 2x1x1), odd-even (column-parity
// classes) and the Hamiltonian chain (row-parity classes), each with and
// without U/I-turns.
func quotientChainDesigns(t testing.TB) []quotientDesign {
	var out []quotientDesign
	for _, budget := range [][]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {1, 1, 1}, {1, 2, 1}, {2, 1, 1}} {
		chains, err := partstrat.Derive(partstrat.ArrangementFor(budget))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chains {
			out = append(out, chainDesign(len(budget), c, true), chainDesign(len(budget), c, false))
		}
	}
	for _, spec := range []string{"PA[X- Ye+ Ye-] -> PB[X+ Yo+ Yo-]", "PA[Xe+ Xo- Y+] -> PB[Xe- Xo+ Y-]"} {
		c, err := core.ParseChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, chainDesign(2, c, true), chainDesign(2, c, false))
	}
	// Two designs with X U-turns tied to one-way Y+ turns: with both U-turn
	// orders the cycle X+ > X- > X+ stays balanced (cyclic, undecided); with
	// one order the pruning removes every edge (acyclic).
	for _, spec := range []string{"X+>X-,X->X+,X+>Y+,Y+>X-", "X+>X-,X+>Y+,Y+>X-,Y+>X+"} {
		turns, err := core.ParseTurnList(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts := core.NewTurnSet()
		for _, tr := range turns {
			ts.Add(tr.From, tr.To, core.ByTheorem1)
		}
		out = append(out, quotientDesign{name: spec, dims: 2, vcs: VCConfigFor(2, ts.Classes()), ts: ts})
	}
	return out
}

// randomQuotientDesign draws a relation over 1-2 VCs per dimension: a
// random subset of the 90-degree turns, sparse or dense, sometimes with
// same-dimension transitions (U-turns and VC changes).
func randomQuotientDesign(rng *rand.Rand, dims int) quotientDesign {
	vcs := make(VCConfig, dims)
	var classes []channel.Class
	for d := range vcs {
		vcs[d] = 1 + rng.Intn(2)
		for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
			for vc := 1; vc <= vcs[d]; vc++ {
				classes = append(classes, channel.NewVC(channel.Dim(d), sign, vc))
			}
		}
	}
	p := []float64{0.15, 0.3, 0.5}[rng.Intn(3)]
	same := []float64{0, p / 4}[rng.Intn(2)]
	ts := core.NewTurnSet()
	ts.Declare(classes...)
	for _, a := range classes {
		for _, b := range classes {
			q := p
			if a.Dim == b.Dim {
				q = same
			}
			if a != b && rng.Float64() < q {
				ts.Add(a, b, core.ByTheorem1)
			}
		}
	}
	return quotientDesign{name: "random", dims: dims, vcs: vcs, ts: ts}
}

// quotientGrid lists the meshes, or the tori, the soundness test checks:
// 2D sides 3-12, 3D sides 3-6, mixed sides included. Under -race every
// third network.
func quotientGrid(dims int, wrap bool) []*topology.Network {
	hi := 12
	if dims == 3 {
		hi = 6
	}
	var out []*topology.Network
	sizes := make([]int, dims)
	var walk func(d int)
	walk = func(d int) {
		if d == dims {
			out = append(out, network(wrap, sizes...))
			return
		}
		for s := 3; s <= hi; s++ {
			sizes[d] = s
			walk(d + 1)
		}
	}
	walk(0)
	if raceEnabled {
		for i := range out[:len(out)/3] {
			out[i] = out[3*i]
		}
		out = out[:len(out)/3]
	}
	return out
}

// network returns the torus with the given sides when wrap is set, else
// the mesh.
func network(wrap bool, sizes ...int) *topology.Network {
	if wrap {
		return topology.NewTorus(sizes...)
	}
	return topology.NewMesh(sizes...)
}

// checkQuotient holds one design to the quotient's contract on net:
// wherever the quotient decides the design, the concrete graph has the
// same verdict and the quotient's report equals the concrete one field
// for field, a torus's cycle channel for channel.
func checkQuotient(t *testing.T, ws *Workspace, net *topology.Network, d quotientDesign) {
	t.Helper()
	rep, ok := quotientReport(context.Background(), net, d.vcs, d.ts)
	if !ok {
		return
	}
	ws.g.bind(net, d.vcs)
	want := ws.VerifyTurnSet(d.ts)
	if want.Acyclic != rep.Acyclic {
		t.Fatalf("%s on %s: quotient says acyclic = %t, concrete graph %s", d.name, net, rep.Acyclic, want)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("%s on %s: quotient report %+v, concrete %+v", d.name, net, rep, want)
	}
}

// TestQuotientSound is the differential soundness check: for every chain
// design and 320 seeded random turn sets, wherever the quotient answers,
// the concrete graph on every grid mesh is acyclic, the one on every grid
// torus cyclic, with the same report: counts, and a torus's cycle. On
// this sample sign pruning is also complete: every design it leaves
// undecided is cyclic on the grid's largest mesh.
func TestQuotientSound(t *testing.T) {
	designs := quotientChainDesigns(t)
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 320; i++ {
		designs = append(designs, randomQuotientDesign(rng, 2+rng.Intn(4)/3))
	}
	largest := map[int]*topology.Network{2: topology.NewMesh(12, 12), 3: topology.NewMesh(6, 6, 6)}
	ws := NewWorkspace(topology.NewMesh(3, 3), nil)
	for _, wrap := range []bool{false, true} {
		grids := map[int][]*topology.Network{2: quotientGrid(2, wrap), 3: quotientGrid(3, wrap)}
		decided, random := 0, 0
		for _, d := range designs {
			if q := quotientOf(context.Background(), d.dims, wrap, d.vcs, d.ts); q.decided {
				decided++
				if d.name == "random" {
					random++
				}
			} else if !wrap {
				if rep := VerifyTurnSet(largest[d.dims], d.vcs, d.ts); rep.Acyclic {
					t.Errorf("%s: undecided, yet acyclic on %s", d.name, rep.Network)
				}
			}
			for _, net := range grids[d.dims] {
				checkQuotient(t, ws, net, d)
			}
		}
		t.Logf("wrap=%t: %d designs, %d decided for every size (%d of 320 random)", wrap, len(designs), decided, random)
	}
}

// FuzzQuotientSound draws a design and a mesh or torus from the fuzzer's
// bytes and holds them to checkQuotient.
func FuzzQuotientSound(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(3*seed), uint8(seed%4), uint8(seed))
	}
	chains := quotientChainDesigns(f)
	f.Fuzz(func(t *testing.T, seed int64, a, b, c, pick uint8) {
		rng := rand.New(rand.NewSource(seed))
		dims := 2 + int(c%2)
		var d quotientDesign
		if pick%4 == 0 {
			// A chain of matching dimension.
			for d.ts == nil || d.dims != dims {
				d = chains[rng.Intn(len(chains))]
			}
		} else {
			d = randomQuotientDesign(rng, dims)
		}
		sizes := []int{3 + int(a%10), 3 + int(b%10)}
		if dims == 3 {
			sizes = []int{3 + int(a%4), 3 + int(b%4), 3 + int(pick/4%4)}
		}
		checkQuotient(t, NewWorkspace(topology.NewMesh(3, 3), nil), network(c/2%2 == 1, sizes...), d)
	})
}

// TestQuotientSufficiency is the paper's sufficiency claim for meshes as a
// property: every chain partstrat's Algorithms 1 and 2 derive is proved
// acyclic by the quotient on every mesh with sides ≥ 3, none left
// undecided, and connects every pair on one concrete mesh.
func TestQuotientSufficiency(t *testing.T) {
	start := time.Now()
	var chains []*core.Chain
	add := func(cs []*core.Chain, err error) {
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, cs...)
	}
	req2 := partstrat.VCRequirements(2)
	for x := 1; x <= req2[0]; x++ {
		for y := 1; y <= req2[1]; y++ {
			arr := partstrat.ArrangementFor([]int{x, y})
			add(partstrat.Derive(arr))
			add(partstrat.DeriveWithPairings(arr))
		}
	}
	// Three dimensions: a seeded sample of the VC vectors up to
	// VCRequirements(3), and of each vector's chains.
	rng := rand.New(rand.NewSource(3))
	req3 := partstrat.VCRequirements(3)
	for i := 0; i < 4; i++ {
		v := []int{1 + rng.Intn(req3[0]), 1 + rng.Intn(req3[1]), 1 + rng.Intn(req3[2])}
		cs, err := partstrat.DeriveWithPairings(partstrat.ArrangementFor(v))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			chains = append(chains, cs[rng.Intn(len(cs))])
		}
	}
	for n := 2; n <= 3; n++ {
		chains = append(chains, partstrat.ExceptionalCase(n)...)
		c, err := partstrat.MinFullyAdaptiveChain(n)
		add([]*core.Chain{c}, err)
	}
	for _, c := range chains {
		n := 2
		for _, cls := range c.Channels() {
			n = max(n, int(cls.Dim)+1)
		}
		vcs, ts := VCConfigFor(n, c.Channels()), c.AllTurns()
		if !quotientOf(context.Background(), n, false, vcs, ts).decided {
			t.Errorf("%s: the quotient leaves a derived chain undecided", c.PlainString())
			continue
		}
		net := topology.NewMesh(4, 5)
		if n == 3 {
			net = topology.NewMesh(3, 4, 3)
		}
		if conn := Connectivity(net, vcs, ts, false); !conn.Connected() {
			t.Errorf("%s on %s: %s", c.PlainString(), net, conn)
		}
	}
	t.Logf("%d derived chains proved acyclic for every mesh in %v", len(chains), time.Since(start).Round(time.Millisecond))
}

// TestQuotientHitAllocs pins the cost of a verification the quotient
// cache answers: one allocation, the Report's network name, and no
// workspace checkout.
func TestQuotientHitAllocs(t *testing.T) {
	net := topology.NewMesh(40, 24)
	c, err := core.ParseChain("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")
	if err != nil {
		t.Fatal(err)
	}
	vcs, ts := VCConfigFor(2, c.Channels()), c.AllTurns()
	ctx := context.Background()
	want, _ := verifyDesign(ctx, nil, net, vcs, ts) // builds the quotient
	gets := obsPoolGets.Value()
	var rep Report
	if n := mallocs(100, func() { rep, _ = verifyDesign(ctx, nil, net, vcs, ts) }); n != 100 {
		t.Errorf("100 quotient-answered verifications: %d allocs, want 100", n)
	}
	if got := obsPoolGets.Value(); got != gets {
		t.Errorf("workspace pool gets %d -> %d, want unchanged", gets, got)
	}
	if !reflect.DeepEqual(rep, want) || !rep.Acyclic {
		t.Errorf("report %+v, want %+v", rep, want)
	}
}

// TestQuotientServes pins which networks the quotient answers for: only
// regular meshes and tori of at most three dimensions with every side ≥ 3.
// On the others a verify-cache miss builds the concrete graph, with the
// same report as a workspace.
func TestQuotientServes(t *testing.T) {
	c, err := core.ParseChain("PA[X+ X- Y-] -> PB[Y+]")
	if err != nil {
		t.Fatal(err)
	}
	cut := []topology.Link{{From: 7, Dim: channel.X, Sign: channel.Plus}}
	for _, tc := range []struct {
		net  *topology.Network
		want bool
	}{
		{topology.NewMesh(3, 7), true},
		{topology.NewMesh(3, 4, 5), true},
		{topology.NewTorus(6, 6), true},
		{topology.NewTorus(7), true},
		{topology.NewMesh(2, 8), false},
		{topology.NewTorus(2, 8), false},
		{topology.NewMesh(6, 6).WithoutLinks(cut), false},
		{topology.NewTorus(6, 6).WithoutLinks(cut), false},
		{topology.NewMesh(3, 3, 3, 3), false},
		{topology.NewTorus(3, 3, 3, 3), false},
	} {
		vcs := VCConfigFor(tc.net.Dims(), c.Channels())
		if got := quotientServes(tc.net, vcs); got != tc.want {
			t.Errorf("%s: quotientServes = %t, want %t", tc.net, got, tc.want)
		}
		answers := obsQuotientAnswers.Value()
		got, _ := verifyDesign(context.Background(), nil, tc.net, vcs, c.AllTurns())
		if served := obsQuotientAnswers.Value() > answers; served != tc.want {
			t.Errorf("%s: answered by the quotient = %t, want %t", tc.net, served, tc.want)
		}
		if want := NewWorkspace(tc.net, vcs).VerifyTurnSet(c.AllTurns()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: report %+v, workspace %+v", tc.net, got, want)
		}
	}
}

// TestQuotientWrapKey verifies one design, XY routing, on a mesh and on a
// torus of the same sides through the process-wide quotient cache. The
// mesh's verdict
// is acyclic and the torus's cyclic, so a key without the wrap bit would
// answer the second from the first's entry.
func TestQuotientWrapKey(t *testing.T) {
	ts, err := core.ParseTurnList("X+>Y+,X+>Y-,X->Y+,X->Y-")
	if err != nil {
		t.Fatal(err)
	}
	set := core.NewTurnSet()
	for _, tr := range ts {
		set.Add(tr.From, tr.To, core.ByTheorem1)
	}
	vcs := VCConfig{1, 1}
	for _, net := range []*topology.Network{topology.NewMesh(5, 5), topology.NewTorus(5, 5)} {
		answers := obsQuotientAnswers.Value()
		got, _ := verifyDesign(context.Background(), nil, net, vcs, set)
		if obsQuotientAnswers.Value() == answers {
			t.Errorf("%s: not answered by the quotient", net)
		}
		want := NewWorkspace(net, vcs).VerifyTurnSet(set)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: report %v, workspace %v", net, got, want)
		}
		if got.Acyclic != !net.Wrap(channel.X) {
			t.Errorf("%s: acyclic = %t", net, got.Acyclic)
		}
	}
}

// TestQuotientTorusFallback pins a torus design that fails the
// straight-continuation check: X− and Y− are undeclared, so their
// channels have no successors. The quotient leaves it undecided and the
// concrete engine answers, with a workspace's report.
func TestQuotientTorusFallback(t *testing.T) {
	set := core.NewTurnSet()
	set.Add(channel.NewVC(channel.X, channel.Plus, 1), channel.NewVC(channel.Y, channel.Plus, 1), core.ByTheorem1)
	net, vcs := topology.NewTorus(5, 4), VCConfig{1, 1}
	if q := quotientOf(context.Background(), 2, true, vcs, set); q.decided {
		t.Fatal("quotient decided a torus design with undeclared classes")
	}
	undecided, verifies := obsQuotientUndecided.Value(), obsVerifies.Value()
	got, _ := verifyDesign(context.Background(), nil, net, vcs, set)
	if obsQuotientUndecided.Value() == undecided || obsVerifies.Value() == verifies {
		t.Error("not verified concretely after the quotient")
	}
	want := NewWorkspace(net, vcs).VerifyTurnSet(set)
	if !reflect.DeepEqual(got, want) || want.Acyclic {
		t.Errorf("report %v, workspace %v", got, want)
	}
}

// TestQuotientConcurrent verifies designs from several goroutines at
// once, so that quotient builds race with cache hits and with each
// other: every report equals a workspace's. Run it under -race.
func TestQuotientConcurrent(t *testing.T) {
	designs := quotientChainDesigns(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		designs = append(designs, randomQuotientDesign(rng, 2+i%2))
	}
	nets := map[int]*topology.Network{2: topology.NewMesh(7, 9), 3: topology.NewMesh(3, 5, 4)}
	want := make([]Report, len(designs))
	for i, d := range designs {
		want[i] = NewWorkspace(nets[d.dims], d.vcs).VerifyTurnSet(d.ts)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range designs {
				i := (k + 7*w) % len(designs)
				d := designs[i]
				got, _ := verifyDesign(context.Background(), nil, nets[d.dims], d.vcs, d.ts)
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d, %s: report %+v, workspace %+v", w, d.name, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
