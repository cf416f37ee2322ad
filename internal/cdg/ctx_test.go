package cdg

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ebda/internal/core"
	"ebda/internal/topology"
)

// cancelledCtx returns a context that is already cancelled.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestVerifyCtxAlreadyCancelled pins the serving contract: an expired
// deadline stops the work before any verdict is produced, at every layer
// (workspace, pooled package entry, cache).
func TestVerifyCtxAlreadyCancelled(t *testing.T) {
	net := topology.NewMesh(6, 6)
	chain := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]")
	ts := chain.AllTurns()
	vcs := VCConfigFor(net.Dims(), chain.Channels())
	ctx := cancelledCtx()

	ws := NewWorkspace(net, vcs)
	if rep, err := ws.verify(ctx, ts); !errors.Is(err, context.Canceled) {
		t.Fatalf("workspace: err = %v, want context.Canceled", err)
	} else if !reflect.DeepEqual(rep, Report{}) {
		t.Fatalf("workspace: cancelled run produced a non-zero report: %+v", rep)
	}

	if _, err := VerifyTurnSetCtx(ctx, net, vcs, ts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pooled: err = %v, want context.Canceled", err)
	}

	cache := &VerifyCache{}
	if _, err := cache.Verify(ctx, TurnSetQuery(net, vcs, ts)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cache: err = %v, want context.Canceled", err)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("cache stored an entry for a cancelled verification: %+v", st)
	}
}

// TestVerifyCtxCancelledBetweenKahnRounds drives kahnPeel directly with a
// pre-cancelled context: the peel must abandon the rounds loop and report
// the error (the initial zero-in-degree frontier is discovered before the
// first round check, so the peel count stays partial).
func TestVerifyCtxCancelledBetweenKahnRounds(t *testing.T) {
	net := topology.NewMesh(6, 6)
	chain := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]")
	ts := chain.AllTurns()
	vcs := VCConfigFor(net.Dims(), chain.Channels())
	g := BuildFromTurnSet(net, vcs, ts)
	var st acyclicState
	peeled, err := g.kahnPeel(cancelledCtx(), &st)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("kahnPeel err = %v, want context.Canceled", err)
	}
	if peeled >= g.NumChannels() {
		t.Fatalf("cancelled peel claims completion: peeled %d of %d", peeled, g.NumChannels())
	}
}

// TestVerifyCtxMatchesUncancelledPath checks the context-aware entry
// points return bit-identical reports to the established ones when the
// context never fires, for both an acyclic and a cyclic design.
func TestVerifyCtxMatchesUncancelledPath(t *testing.T) {
	net := topology.NewMesh(5, 5)
	cases := []struct {
		name string
		ts   *core.TurnSet
	}{
		{"acyclic", core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]").AllTurns()},
		{"cyclic", allTurnsTS()},
	}
	for _, tc := range cases {
		vcs := VCConfigFor(net.Dims(), tc.ts.Classes())
		want := VerifyTurnSet(net, vcs, tc.ts)
		got, err := VerifyTurnSetCtx(context.Background(), net, vcs, tc.ts)
		if err != nil {
			t.Fatalf("%s: unexpected error: %v", tc.name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: ctx path diverged:\nwant %+v\ngot  %+v", tc.name, want, got)
		}
	}
}

// allTurnsTS builds the unrestricted 2D relation (every 90-degree turn
// allowed), which is cyclic on a mesh.
func allTurnsTS() *core.TurnSet {
	turns, err := core.ParseTurnList("X+>Y+,X+>Y-,X->Y+,X->Y-,Y+>X+,Y+>X-,Y->X+,Y->X-")
	if err != nil {
		panic(err)
	}
	ts := core.NewTurnSet()
	for _, t := range turns {
		ts.Add(t.From, t.To, core.ByTheorem1)
	}
	return ts
}

// TestCacheLookupProvenance pins Lookup's contract: a miss counts
// nothing, a hit counts a hit and returns the exact stored report.
func TestCacheLookupProvenance(t *testing.T) {
	net := topology.NewMesh(5, 5)
	chain := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]")
	ts := chain.AllTurns()
	vcs := VCConfigFor(net.Dims(), chain.Channels())
	cache := &VerifyCache{}

	if _, ok := cache.Lookup(VerifyKey(net, vcs, ts)); ok {
		t.Fatal("Lookup hit on an empty cache")
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Lookup miss moved counters: %+v", st)
	}
	want, err := cache.Verify(context.Background(), TurnSetQuery(net, vcs, ts))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Lookup(VerifyKey(net, vcs, ts))
	if !ok {
		t.Fatal("Lookup miss after a computed verification")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Lookup returned a different report:\nwant %+v\ngot  %+v", want, got)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("counters after miss+compute+hit: %+v", st)
	}
}

// TestVerifyKeyStable pins that VerifyKey matches the cache's internal
// identity: equal shapes collide, different turn sets do not.
func TestVerifyKeyStable(t *testing.T) {
	net := topology.NewMesh(5, 5)
	a := core.MustParseChain("PA[X+ X- Y-] -> PB[Y+]")
	b := core.MustParseChain("PA[X+ X- Y+] -> PB[Y-]")
	vcsA := VCConfigFor(net.Dims(), a.Channels())
	k1, c1 := VerifyKey(net, vcsA, a.AllTurns())
	k2, c2 := VerifyKey(net, vcsA, a.AllTurns())
	if k1 != k2 || c1 != c2 {
		t.Fatal("VerifyKey is not deterministic for equal inputs")
	}
	k3, _ := VerifyKey(net, VCConfigFor(net.Dims(), b.Channels()), b.AllTurns())
	if k1 == k3 {
		t.Fatal("distinct turn sets share a verify key")
	}
}
