package cdg

import (
	"context"
	"strings"
	"testing"
)

// ring returns an n-node edge set forming the cycle 0 -> 1 -> ... -> 0.
func ring(n int) *EdgeSet {
	e := NewEdgeSet(n)
	for i := 0; i < n; i++ {
		e.AddEdge(i, (i+1)%n)
	}
	return e
}

func TestEdgeSetVerifyAcyclic(t *testing.T) {
	e := NewEdgeSet(5)
	e.AddEdge(0, 1)
	e.AddEdge(1, 2)
	e.AddEdge(0, 3)
	e.AddEdge(3, 4)
	e.AddEdge(2, 4)
	rep := VerifyEdgeSet(e)
	if !rep.Acyclic {
		t.Fatalf("DAG reported cyclic: %s", rep)
	}
	if rep.Nodes != 5 || rep.Edges != 5 {
		t.Fatalf("counts wrong: %+v", rep)
	}
	if rep.Cycle != nil {
		t.Fatalf("acyclic report carries a cycle: %v", rep.Cycle)
	}
}

func TestEdgeSetVerifyCycle(t *testing.T) {
	e := ring(4)
	// A peelable tail hanging off the ring must not confuse the witness.
	e.AddEdge(1, 3) // chord inside the ring
	rep := VerifyEdgeSet(e)
	if rep.Acyclic {
		t.Fatal("ring reported acyclic")
	}
	if len(rep.Cycle) < 2 {
		t.Fatalf("degenerate witness: %v", rep.Cycle)
	}
	// The witness must be a real cycle: every consecutive pair an edge,
	// and the last element depends on the first.
	for i := range rep.Cycle {
		from := rep.Cycle[i]
		to := rep.Cycle[(i+1)%len(rep.Cycle)]
		if !e.HasEdge(from, to) {
			t.Fatalf("witness step %d -> %d is not an edge (cycle %v)", from, to, rep.Cycle)
		}
	}
	if s := rep.String(); !strings.Contains(s, "CYCLIC") {
		t.Fatalf("String() of cyclic report: %q", s)
	}
}

func TestEdgeSetSelfLoop(t *testing.T) {
	e := NewEdgeSet(3)
	e.AddEdge(0, 1)
	e.AddEdge(2, 2)
	rep := VerifyEdgeSet(e)
	if rep.Acyclic {
		t.Fatal("self-loop reported acyclic")
	}
	if len(rep.Cycle) != 1 || rep.Cycle[0] != 2 {
		t.Fatalf("self-loop witness: %v", rep.Cycle)
	}
}

func TestEdgeSetAddEdgeDedup(t *testing.T) {
	e := NewEdgeSet(2)
	if !e.AddEdge(0, 1) {
		t.Fatal("first AddEdge reported duplicate")
	}
	if e.AddEdge(0, 1) {
		t.Fatal("duplicate AddEdge reported new")
	}
	if e.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", e.NumEdges())
	}
	if !e.HasEdge(0, 1) || e.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestEdgeSetFingerprintOrderIndependent(t *testing.T) {
	a := NewEdgeSet(6)
	b := NewEdgeSet(6)
	edges := [][2]int{{0, 1}, {4, 2}, {2, 3}, {5, 0}, {3, 1}}
	for _, e := range edges {
		a.AddEdge(e[0], e[1])
	}
	for i := len(edges) - 1; i >= 0; i-- {
		b.AddEdge(edges[i][0], edges[i][1])
	}
	a1, a2 := a.Fingerprint()
	b1, b2 := b.Fingerprint()
	if a1 != b1 || a2 != b2 {
		t.Fatalf("fingerprint depends on insertion order: (%x,%x) vs (%x,%x)", a1, a2, b1, b2)
	}
	// Direction matters.
	c := NewEdgeSet(6)
	for _, e := range edges {
		c.AddEdge(e[1], e[0])
	}
	c1, c2 := c.Fingerprint()
	if c1 == a1 && c2 == a2 {
		t.Fatal("reversed edges share the fingerprint")
	}
	// Node count matters even with identical edges.
	d := NewEdgeSet(7)
	for _, e := range edges {
		d.AddEdge(e[0], e[1])
	}
	d1, d2 := d.Fingerprint()
	if d1 == a1 && d2 == a2 {
		t.Fatal("node count not part of the fingerprint")
	}
}

func TestEdgeCacheHitsAndEquivalence(t *testing.T) {
	cache := &EdgeCache{}
	e := ring(10)
	first, _ := cache.Verify(context.Background(), EdgeQuery(e))
	// A structurally identical set built in a different order must hit.
	f := NewEdgeSet(10)
	for i := 9; i >= 0; i-- {
		f.AddEdge(i, (i+1)%10)
	}
	second, _ := cache.Verify(context.Background(), EdgeQuery(f))
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if first.Acyclic != second.Acyclic || len(first.Cycle) != len(second.Cycle) {
		t.Fatalf("cached verdict diverges: %v vs %v", first, second)
	}
	uncached := VerifyEdgeSet(e)
	if uncached.Acyclic != first.Acyclic || len(uncached.Cycle) != len(first.Cycle) {
		t.Fatalf("cached vs uncached diverge: %v vs %v", first, uncached)
	}
	cache.Reset()
	if st := cache.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("Reset left state: %+v", st)
	}
}

func TestEdgeSetEmpty(t *testing.T) {
	rep := VerifyEdgeSet(NewEdgeSet(0))
	if !rep.Acyclic || rep.Nodes != 0 {
		t.Fatalf("empty set: %+v", rep)
	}
}
