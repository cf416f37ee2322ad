package cdg

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// reportsIdentical compares two reports the way the delta contract
// promises equality: every scalar field plus the formatted cycle witness.
// Raw Cycle slices are not compared element-wise because a derived
// network's dense renumbering changes Channel.Index without changing any
// rendered form.
func reportsIdentical(a, b Report) bool {
	return a.Network == b.Network &&
		a.Channels == b.Channels &&
		a.Edges == b.Edges &&
		a.Acyclic == b.Acyclic &&
		FormatCycle(a.Cycle) == FormatCycle(b.Cycle)
}

// forceBudget overrides the delta dirty budget for the duration of a test.
func forceBudget(t *testing.T, f func(nc int) int) {
	t.Helper()
	old := deltaBudget
	deltaBudget = f
	t.Cleanup(func() { deltaBudget = old })
}

// deltaCases pairs a network with turn-set designs to perturb: acyclic
// chain extractions and a deliberately cyclic relation, so witness
// formatting is exercised too.
func deltaCases() []struct {
	name string
	net  *topology.Network
	vcs  VCConfig
	ts   *core.TurnSet
} {
	cyclic := func(vcs string) *core.TurnSet {
		ts := core.NewTurnSet()
		dirs := channel.MustParseList(vcs)
		for _, a := range dirs {
			for _, b := range dirs {
				if a.Dim != b.Dim {
					ts.Add(a, b, core.ByTheorem1)
				}
			}
		}
		return ts
	}
	chainTS := func(spec string) *core.TurnSet {
		return core.MustParseChain(spec).AllTurns()
	}
	return []struct {
		name string
		net  *topology.Network
		vcs  VCConfig
		ts   *core.TurnSet
	}{
		{"mesh4x4-northlast", topology.NewMesh(4, 4), nil, chainTS("PA[X+ X- Y-] -> PB[Y+]")},
		{"mesh5x5-negfirst", topology.NewMesh(5, 5), nil, chainTS("PA[X- Y-] -> PB[X+ Y+]")},
		{"mesh8x8-vc", topology.NewMesh(8, 8), VCConfig{1, 2}, chainTS("PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]")},
		{"mesh4x4-cyclic", topology.NewMesh(4, 4), VCConfig{2, 2}, cyclic("X1+ X2- Y1+ Y2-")},
		{"torus4x4-cyclic", topology.NewTorus(4, 4), nil, cyclic("X1+ Y1-")},
		{"torus5x4-chain", topology.NewTorus(5, 4), nil, chainTS("PA[X+ X- Y-] -> PB[Y+]")},
	}
}

// TestDeltaSingleLinkEquivalence is the tentpole contract: removing a link
// through a delta on the retained base must produce the identical report —
// including cycle witness formatting — as a fresh verification of the
// topology.WithoutLinks-derived network, across shapes and seeds.
func TestDeltaSingleLinkEquivalence(t *testing.T) {
	for _, tc := range deltaCases() {
		t.Run(tc.name, func(t *testing.T) {
			dw, err := NewDeltaWorkspace(tc.net, tc.vcs, tc.ts)
			if err != nil {
				t.Fatal(err)
			}
			links := tc.net.Links()
			for _, seed := range []int64{1, 7, 42} {
				rng := rand.New(rand.NewSource(seed))
				for n := 0; n < 4; n++ {
					l := links[rng.Intn(len(links))]
					diff := Diff{RemoveLinks: []topology.Link{l}}
					got, err := dw.VerifyDiff(diff)
					if err != nil {
						t.Fatalf("seed %d link %v: %v", seed, l, err)
					}
					derived := tc.net.WithoutLinks([]topology.Link{l})
					want := VerifyTurnSet(derived, tc.vcs, tc.ts)
					if !reportsIdentical(got, want) {
						t.Fatalf("seed %d link %v:\ndelta: %s\nfresh: %s", seed, l, got, want)
					}
				}
			}
		})
	}
}

// TestDeltaMultiLinkEquivalence removes several links at once, including
// adjacent ones (shared endpoints), and checks the same equivalence.
func TestDeltaMultiLinkEquivalence(t *testing.T) {
	for _, tc := range deltaCases() {
		t.Run(tc.name, func(t *testing.T) {
			dw, err := NewDeltaWorkspace(tc.net, tc.vcs, tc.ts)
			if err != nil {
				t.Fatal(err)
			}
			links := tc.net.Links()
			for _, seed := range []int64{3, 11} {
				rng := rand.New(rand.NewSource(seed))
				var faults []topology.Link
				picked := map[int]bool{}
				for len(faults) < 3 {
					i := rng.Intn(len(links))
					if picked[i] {
						continue
					}
					picked[i] = true
					faults = append(faults, links[i])
				}
				got, err := dw.VerifyDiff(Diff{RemoveLinks: faults})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				want := VerifyTurnSet(tc.net.WithoutLinks(faults), tc.vcs, tc.ts)
				if !reportsIdentical(got, want) {
					t.Fatalf("seed %d faults %v:\ndelta: %s\nfresh: %s", seed, faults, got, want)
				}
			}
		})
	}
}

// TestDeltaTurnToggleEquivalence disables and enables turns through deltas
// and compares against fresh verifications of the correspondingly modified
// turn set on the same network and VC configuration.
func TestDeltaTurnToggleEquivalence(t *testing.T) {
	net := topology.NewMesh(5, 5)
	full := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]").AllTurns()
	dw, err := NewDeltaWorkspace(net, nil, full)
	if err != nil {
		t.Fatal(err)
	}
	turns := full.Turns()
	for _, seed := range []int64{2, 9, 33} {
		rng := rand.New(rand.NewSource(seed))
		tn := turns[rng.Intn(len(turns))]
		if tn.From == tn.To {
			continue
		}
		got, err := dw.VerifyDiff(Diff{DisableTurns: []core.Turn{tn}})
		if err != nil {
			t.Fatalf("seed %d disable %s: %v", seed, tn, err)
		}
		mod := full.Clone()
		if !mod.Remove(tn.From, tn.To) {
			t.Fatalf("turn %s not removable", tn)
		}
		want := VerifyTurnSet(net, nil, mod)
		if !reportsIdentical(got, want) {
			t.Fatalf("disable %s:\ndelta: %s\nfresh: %s", tn, got, want)
		}
	}
	// Enable: start from a reduced base and toggle a removed turn back on;
	// the delta verdict must match the full set's fresh verdict.
	for _, tn := range turns[:4] {
		if tn.From == tn.To {
			continue
		}
		reduced := full.Clone()
		if !reduced.Remove(tn.From, tn.To) {
			continue
		}
		rdw, err := NewDeltaWorkspace(net, nil, reduced)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rdw.VerifyDiff(Diff{EnableTurns: []core.Turn{tn}})
		if err != nil {
			t.Fatalf("enable %s: %v", tn, err)
		}
		want := VerifyTurnSet(net, nil, full)
		if !reportsIdentical(got, want) {
			t.Fatalf("enable %s:\ndelta: %s\nfresh: %s", tn, got, want)
		}
	}
	// Disabling a Y+ continuation-adjacent turn on a cyclic design must
	// also track witness changes: toggle on the cyclic relation.
	cyc := core.NewTurnSet()
	dirs := channel.MustParseList("X1+ X2- Y1+ Y2-")
	for _, a := range dirs {
		for _, b := range dirs {
			if a.Dim != b.Dim {
				cyc.Add(a, b, core.ByTheorem1)
			}
		}
	}
	cdw, err := NewDeltaWorkspace(topology.NewMesh(3, 3), VCConfig{2, 2}, cyc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range cyc.Turns() {
		got, err := cdw.VerifyDiff(Diff{DisableTurns: []core.Turn{tn}})
		if err != nil {
			t.Fatalf("disable %s: %v", tn, err)
		}
		mod := cyc.Clone()
		mod.Remove(tn.From, tn.To)
		want := VerifyTurnSet(topology.NewMesh(3, 3), VCConfig{2, 2}, mod)
		// Distinct Network instances share geometry; names match ("3x3
		// mesh"), so reports must be identical.
		if !reportsIdentical(got, want) {
			t.Fatalf("disable %s:\ndelta: %s\nfresh: %s", tn, got, want)
		}
	}
}

// TestDeltaJobsInvariance: the delta signatures bench/ calls with an
// ignored int argument (VerifyDiffJobs, VerifyDiffCtx) answer exactly as
// VerifyDiff, on both the incremental path and the forced full-peel
// fallback.
func TestDeltaJobsInvariance(t *testing.T) {
	for _, budget := range []struct {
		name string
		f    func(nc int) int
	}{
		{"incremental", func(nc int) int { return nc * 16 }},
		{"fallback", func(int) int { return -1 }},
	} {
		t.Run(budget.name, func(t *testing.T) {
			forceBudget(t, budget.f)
			for _, tc := range deltaCases() {
				dw, err := NewDeltaWorkspace(tc.net, tc.vcs, tc.ts)
				if err != nil {
					t.Fatal(err)
				}
				links := tc.net.Links()
				rng := rand.New(rand.NewSource(5))
				diffs := []Diff{
					{RemoveLinks: []topology.Link{links[rng.Intn(len(links))]}},
					{RemoveLinks: []topology.Link{links[rng.Intn(len(links))], links[rng.Intn(len(links))/2]}},
				}
				if ts := tc.ts.Turns(); len(ts) > 0 {
					diffs = append(diffs, Diff{DisableTurns: []core.Turn{ts[rng.Intn(len(ts))]}})
				}
				for di, diff := range diffs {
					base, err := dw.VerifyDiff(diff)
					if err != nil {
						t.Fatalf("%s diff %d: %v", tc.name, di, err)
					}
					for _, jobs := range benchJobs {
						viaJobs, err := dw.VerifyDiffJobs(diff, jobs)
						if err != nil {
							t.Fatalf("%s diff %d jobs %d: %v", tc.name, di, jobs, err)
						}
						viaCtx, err := dw.VerifyDiffCtx(context.Background(), diff, jobs)
						if err != nil {
							t.Fatalf("%s diff %d jobs %d: %v", tc.name, di, jobs, err)
						}
						if !reportsIdentical(viaJobs, base) || !reportsIdentical(viaCtx, base) {
							t.Fatalf("%s diff %d: jobs %d diverged\nVerifyDiff:     %s\nVerifyDiffJobs: %s\nVerifyDiffCtx:  %s",
								tc.name, di, jobs, base, viaJobs, viaCtx)
						}
					}
				}
			}
		})
	}
}

// TestDeltaFallbackAgreement runs every case's diffs through both the
// incremental path and the forced fallback and requires bit-identical
// reports — the two implementations check each other.
func TestDeltaFallbackAgreement(t *testing.T) {
	for _, tc := range deltaCases() {
		t.Run(tc.name, func(t *testing.T) {
			dw, err := NewDeltaWorkspace(tc.net, tc.vcs, tc.ts)
			if err != nil {
				t.Fatal(err)
			}
			links := tc.net.Links()
			rng := rand.New(rand.NewSource(13))
			for n := 0; n < 6; n++ {
				diff := Diff{RemoveLinks: []topology.Link{links[rng.Intn(len(links))]}}
				forceBudget(t, func(nc int) int { return nc * 16 })
				inc, err := dw.VerifyDiff(diff)
				if err != nil {
					t.Fatal(err)
				}
				deltaBudget = func(int) int { return -1 }
				full, err := dw.VerifyDiff(diff)
				if err != nil {
					t.Fatal(err)
				}
				if !reportsIdentical(inc, full) {
					t.Fatalf("paths diverged for %v:\nincremental: %s\nfallback:    %s", diff.RemoveLinks, inc, full)
				}
			}
		})
	}
}

// TestDeltaRawEdgeCycle adds a raw back-edge that closes a cycle through
// the previously peeled region — the suspect-probe case — and checks both
// detection and restoration.
func TestDeltaRawEdgeCycle(t *testing.T) {
	net := topology.NewMesh(4, 4)
	ts := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]").AllTurns()
	dw, err := NewDeltaWorkspace(net, nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !dw.BaseReport().Acyclic {
		t.Fatal("base must be acyclic")
	}
	g := dw.Graph()
	// Find an existing dependency a->b and add the reverse b->a, unless it
	// exists; that closes a 2-cycle entirely inside the peeled region.
	var a, b int32 = -1, -1
	for i := range g.adj {
		for _, s := range g.adj[i] {
			if int32(i) != s && !g.HasEdge(int(s), i) {
				a, b = int32(i), s
				break
			}
		}
		if a >= 0 {
			break
		}
	}
	if a < 0 {
		t.Fatal("no candidate edge found")
	}
	rep, err := dw.VerifyDiff(Diff{AddEdges: [][2]int32{{b, a}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acyclic {
		t.Fatal("added back-edge must create a cycle")
	}
	if len(rep.Cycle) == 0 {
		t.Fatal("cyclic delta report must carry a witness")
	}
	// The workspace must be back at base: an empty diff reproduces the
	// base report and the graph's edge count is restored.
	if g.NumEdges() != dw.baseEdges {
		t.Fatalf("edges not restored: %d != %d", g.NumEdges(), dw.baseEdges)
	}
	again, err := dw.VerifyDiff(Diff{})
	if err != nil {
		t.Fatal(err)
	}
	if !reportsIdentical(again, dw.BaseReport()) {
		t.Fatalf("empty diff diverged from base: %s vs %s", again, dw.BaseReport())
	}
	// Removing the raw edge a->b must match a fresh graph without it.
	rep2, err := dw.VerifyDiff(Diff{RemoveEdges: [][2]int32{{a, b}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Edges != dw.baseEdges-1 {
		t.Fatalf("raw removal edge count = %d, want %d", rep2.Edges, dw.baseEdges-1)
	}
}

// TestDeltaRepeatedCallsStable re-runs the same diffs many times on one
// workspace; every repetition must reproduce the first report exactly
// (rollback leaves no residue).
func TestDeltaRepeatedCallsStable(t *testing.T) {
	tc := deltaCases()[2] // 8x8 mesh with VCs
	dw, err := NewDeltaWorkspace(tc.net, tc.vcs, tc.ts)
	if err != nil {
		t.Fatal(err)
	}
	links := tc.net.Links()
	rng := rand.New(rand.NewSource(21))
	diffs := make([]Diff, 5)
	firsts := make([]Report, 5)
	for i := range diffs {
		diffs[i] = Diff{RemoveLinks: []topology.Link{links[rng.Intn(len(links))]}}
		firsts[i], err = dw.VerifyDiff(diffs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for i, diff := range diffs {
			rep, err := dw.VerifyDiff(diff)
			if err != nil {
				t.Fatal(err)
			}
			if !reportsIdentical(rep, firsts[i]) {
				t.Fatalf("round %d diff %d drifted:\nfirst: %s\nnow:   %s", round, i, firsts[i], rep)
			}
		}
	}
}

// TestDeltaValidation exercises every ErrBadDiff path.
func TestDeltaValidation(t *testing.T) {
	net := topology.NewMesh(4, 4)
	ts := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]").AllTurns()
	dw, err := NewDeltaWorkspace(net, nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	xPlus := channel.MustParse("X+")
	zPlus := channel.Class{Dim: channel.Z, Sign: channel.Plus, VC: 1}
	yPlus := channel.MustParse("Y+")
	bad := []Diff{
		// Border link that does not exist (X+ out of the last column).
		{RemoveLinks: []topology.Link{{From: net.ID(topology.Coord{3, 0}), Dim: channel.X, Sign: channel.Plus}}},
		// Disabling an absent turn (Y+ -> X+ is forbidden by north-last).
		{DisableTurns: []core.Turn{{From: yPlus, To: xPlus}}},
		// Disabling a continuation.
		{DisableTurns: []core.Turn{{From: xPlus, To: xPlus}}},
		// Enabling a turn that leaves the declared class set.
		{EnableTurns: []core.Turn{{From: xPlus, To: zPlus}}},
		// Enabling an already-present turn.
		{EnableTurns: []core.Turn{{From: xPlus, To: yPlus}}},
		// Raw edges out of range / duplicated / conflicting.
		{AddEdges: [][2]int32{{-1, 0}}},
		{RemoveEdges: [][2]int32{{0, int32(dw.Graph().NumChannels())}}},
	}
	for i, diff := range bad {
		if _, err := dw.VerifyDiff(diff); !errors.Is(err, ErrBadDiff) {
			t.Errorf("bad diff %d: err = %v, want ErrBadDiff", i, err)
		}
	}
	// A rejected diff must leave the base intact.
	rep, err := dw.VerifyDiff(Diff{})
	if err != nil || !reportsIdentical(rep, dw.BaseReport()) {
		t.Fatalf("base damaged after rejected diffs: %v %s", err, rep)
	}
	// SingleLinkDiff mirrors link validation.
	if _, err := SingleLinkDiff(net, net.ID(topology.Coord{3, 0}), channel.X, channel.Plus); !errors.Is(err, ErrBadDiff) {
		t.Errorf("SingleLinkDiff on absent link: %v", err)
	}
	if d, err := SingleLinkDiff(net, 0, channel.X, channel.Plus); err != nil || len(d.RemoveLinks) != 1 {
		t.Errorf("SingleLinkDiff on real link: %v %v", d, err)
	}
}

// TestDeltaFingerprint checks canonicality: order-independence across
// categories, and sensitivity to every component including Name.
func TestDeltaFingerprint(t *testing.T) {
	net := topology.NewMesh(4, 4)
	links := net.Links()
	a := Diff{RemoveLinks: []topology.Link{links[0], links[5]}}
	b := Diff{RemoveLinks: []topology.Link{links[5], links[0]}}
	a1, a2 := a.Fingerprint()
	b1, b2 := b.Fingerprint()
	if a1 != b1 || a2 != b2 {
		t.Error("fingerprint must be order-independent")
	}
	c1, c2 := Diff{RemoveLinks: []topology.Link{links[0]}}.Fingerprint()
	if c1 == a1 && c2 == a2 {
		t.Error("different link sets must differ")
	}
	xPlus, yPlus := channel.MustParse("X+"), channel.MustParse("Y+")
	d1, d2 := Diff{DisableTurns: []core.Turn{{From: xPlus, To: yPlus}}}.Fingerprint()
	e1, e2 := Diff{EnableTurns: []core.Turn{{From: xPlus, To: yPlus}}}.Fingerprint()
	if d1 == e1 && d2 == e2 {
		t.Error("disable and enable of the same turn must differ")
	}
	f1a, f2a := Diff{Name: "a"}.Fingerprint()
	f1b, f2b := Diff{Name: "b"}.Fingerprint()
	if f1a == f1b && f2a == f2b {
		t.Error("name must contribute")
	}
	g1, g2 := Diff{AddEdges: [][2]int32{{1, 2}}}.Fingerprint()
	h1, h2 := Diff{RemoveEdges: [][2]int32{{1, 2}}}.Fingerprint()
	if g1 == h1 && g2 == h2 {
		t.Error("add and remove of the same edge must differ")
	}
}

// TestDeltaCache exercises the delta cache entry points: miss computes,
// hit returns the memoized report, and the delta key is decorrelated from
// the base key.
func TestDeltaCache(t *testing.T) {
	net := topology.NewMesh(6, 6)
	ts := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]").AllTurns()
	links := net.Links()
	diff := Diff{RemoveLinks: []topology.Link{links[7]}}

	bk, bc := VerifyKey(net, nil, ts)
	dk, dc := DeltaKey(net, nil, ts, diff)
	if bk == dk || bc == dc {
		t.Fatal("delta key must differ from base key")
	}
	dk2, dc2 := DeltaKey(net, nil, ts, Diff{RemoveLinks: []topology.Link{links[8]}})
	if dk == dk2 && dc == dc2 {
		t.Fatal("different diffs must have different keys")
	}

	c := &VerifyCache{}
	if _, ok := c.Lookup(DeltaKey(net, nil, ts, diff)); ok {
		t.Fatal("empty cache must miss")
	}
	rep, err := c.Verify(context.Background(), DeltaQuery(net, nil, ts, diff))
	if err != nil {
		t.Fatal(err)
	}
	want := VerifyTurnSet(net.WithoutLinks(diff.RemoveLinks), nil, ts)
	if !reportsIdentical(rep, want) {
		t.Fatalf("cached delta verdict wrong:\ndelta: %s\nfresh: %s", rep, want)
	}
	hit, ok := c.Lookup(DeltaKey(net, nil, ts, diff))
	if !ok || !reportsIdentical(hit, rep) {
		t.Fatalf("second probe must hit with the same report")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	// An invalid diff returns the error and stores nothing.
	badLink := topology.Link{From: net.ID(topology.Coord{5, 0}), Dim: channel.X, Sign: channel.Plus}
	if _, err := c.Verify(context.Background(), DeltaQuery(net, nil, ts, Diff{RemoveLinks: []topology.Link{badLink}})); !errors.Is(err, ErrBadDiff) {
		t.Fatalf("invalid diff: %v", err)
	}
}

// TestDeltaPool checks reuse and the check-hash guard.
func TestDeltaPool(t *testing.T) {
	net := topology.NewMesh(4, 4)
	ts := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]").AllTurns()
	p := &DeltaPool{}
	dw, err := p.GetCtx(context.Background(), net, nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(dw)
	dw2, err := p.GetCtx(context.Background(), net, nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	if dw2 != dw {
		t.Fatal("pool must reuse the retained workspace")
	}
	// A different base on the same pool builds fresh.
	other := core.MustParseChain("PA[X- Y-] -> PB[X+ Y+]").AllTurns()
	dw3, err := p.GetCtx(context.Background(), net, nil, other)
	if err != nil {
		t.Fatal(err)
	}
	if dw3 == dw2 {
		t.Fatal("different base must not share a workspace")
	}
}

// TestDeltaEmptyDiffName checks report naming: empty diffs and pure turn
// toggles keep the base name, link removals get the -faulty suffix, and an
// explicit Name wins.
func TestDeltaNames(t *testing.T) {
	net := topology.NewMesh(4, 4)
	ts := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]").AllTurns()
	dw, err := NewDeltaWorkspace(net, nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dw.VerifyDiff(Diff{})
	if err != nil || rep.Network != "4x4 mesh" {
		t.Fatalf("empty diff name = %q (%v)", rep.Network, err)
	}
	l := net.Links()[0]
	rep, err = dw.VerifyDiff(Diff{RemoveLinks: []topology.Link{l}})
	if err != nil || rep.Network != "4x4 mesh-faulty" {
		t.Fatalf("link diff name = %q (%v)", rep.Network, err)
	}
	rep, err = dw.VerifyDiff(Diff{RemoveLinks: []topology.Link{l}, Name: "override"})
	if err != nil || rep.Network != "override" {
		t.Fatalf("named diff name = %q (%v)", rep.Network, err)
	}
}
