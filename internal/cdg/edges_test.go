package cdg

import (
	"math/rand"
	"slices"
	"sort"
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

// TestEdgeSetAddEdgeOrders pins that AddEdge yields the same rows, edge
// count and duplicate answers as a map-based reference, whether senders
// ascend (the append path), revisit earlier rows, or arrive shuffled.
func TestEdgeSetAddEdgeOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		var edges [][2]int
		for k := rng.Intn(40); k > 0; k-- {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		if trial%3 == 0 {
			sort.SliceStable(edges, func(i, j int) bool { return edges[i][0] < edges[j][0] })
		}
		got := NewEdgeSet(n)
		want := map[[2]int]bool{}
		for _, e := range edges {
			if added := got.AddEdge(e[0], e[1]); added == want[e] {
				t.Fatalf("trial %d: AddEdge(%d, %d) = %v on a repeat %v", trial, e[0], e[1], added, want[e])
			}
			want[e] = true
		}
		if got.NumEdges() != len(want) {
			t.Fatalf("trial %d: %d edges, want %d", trial, got.NumEdges(), len(want))
		}
		for v := 0; v < n; v++ {
			var row []int32
			for to := 0; to < n; to++ {
				if want[[2]int{v, to}] {
					row = append(row, int32(to))
				}
			}
			if !slices.Equal(got.Succs(v), row) {
				t.Fatalf("trial %d: row %d = %v, want %v (edges %v)", trial, v, got.Succs(v), row, edges)
			}
		}
	}
}
