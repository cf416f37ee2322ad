package cdg

import (
	"fmt"
	"slices"
	"sort"
)

// This file is the engine's first topology-free surface: an EdgeSet is a
// channel dependency graph stripped down to "n nodes, directed edges",
// verified (ModeLoop and the other modes in modes.go) through the
// identical Kahn peel + residual DFS that powers VerifyTurnSet. The
// paper's reduction — deadlock freedom iff the dependency graph is
// acyclic — does not care that our concrete channels happen to be (link,
// VC) pairs of a mesh; any wait-for relation reduced to dense indices
// gets the same verdict machinery, the same determinism guarantees, and
// the same cached entry-point discipline. Its clients are deadlint
// (internal/lint), which verifies the repository's own
// lock-acquisition/wait graph, and the arbitrary-graph front end
// (internal/graphio, /v1/verify/graph).

// EdgeSet is an abstract directed dependency graph over n dense node
// indices [0, n). Adjacency rows are kept sorted ascending and
// duplicate-free, so verification output is independent of insertion
// order.
type EdgeSet struct {
	adj   [][]int32
	edges int
}

// NewEdgeSet returns an empty edge set over n nodes.
func NewEdgeSet(n int) *EdgeSet {
	if n < 0 {
		n = 0
	}
	return &EdgeSet{adj: make([][]int32, n)}
}

// NumNodes returns the node count.
func (e *EdgeSet) NumNodes() int { return len(e.adj) }

// NumEdges returns the number of distinct edges added.
func (e *EdgeSet) NumEdges() int { return e.edges }

// AddEdge adds the directed edge from -> to (self-edges allowed: a node
// that depends on itself is a one-node cycle) and reports whether it was
// new. Out-of-range endpoints panic — callers map their domain onto dense
// indices first.
func (e *EdgeSet) AddEdge(from, to int) bool {
	if from < 0 || from >= len(e.adj) || to < 0 || to >= len(e.adj) {
		panic(fmt.Sprintf("cdg: EdgeSet.AddEdge(%d, %d) outside [0, %d)", from, to, len(e.adj)))
	}
	row := e.adj[from]
	i := sort.Search(len(row), func(k int) bool { return row[k] >= int32(to) })
	if i < len(row) && row[i] == int32(to) {
		return false
	}
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = int32(to)
	e.adj[from] = row
	e.edges++
	return true
}

// EdgeBuilder fills a new EdgeSet whose edges arrive grouped by sender,
// as parsers read them: while senders ascend, each row is carved from
// one shared backing array, so a whole graph costs a handful of
// allocations instead of one per row. A sender that comes back after a
// later one has opened falls back to AddEdge on its finished row.
type EdgeBuilder struct {
	e     *EdgeSet
	back  []int32
	open  int // the row being carved at back[start:], or -1
	start int
	fresh int // rows >= fresh have never been touched
}

// NewEdgeBuilder starts an edge set over n nodes; hint is the expected
// edge count, the backing array's initial capacity.
func NewEdgeBuilder(n, hint int) EdgeBuilder {
	return EdgeBuilder{e: NewEdgeSet(n), back: make([]int32, 0, max(hint, 0)), open: -1}
}

// NumNodes returns the node count of the set being built.
func (b *EdgeBuilder) NumNodes() int { return len(b.e.adj) }

// NumEdges returns the number of distinct edges added so far.
func (b *EdgeBuilder) NumEdges() int { return b.e.edges }

// Add adds the directed edge from -> to and reports whether it was new,
// with AddEdge's semantics: rows stay ascending and duplicate-free, and
// out-of-range endpoints panic.
func (b *EdgeBuilder) Add(from, to int) bool {
	n := len(b.e.adj)
	if from < 0 || from >= n || to < 0 || to >= n {
		panic(fmt.Sprintf("cdg: EdgeBuilder.Add(%d, %d) outside [0, %d)", from, to, n))
	}
	if from != b.open {
		b.close()
		if from < b.fresh {
			return b.e.AddEdge(from, to)
		}
		b.open, b.start, b.fresh = from, len(b.back), from+1
	}
	row := b.back[b.start:]
	if k := len(row); k > 0 && row[k-1] >= int32(to) {
		i, found := slices.BinarySearch(row, int32(to))
		if found {
			return false
		}
		b.back = append(b.back, 0)
		row = b.back[b.start:]
		copy(row[i+1:], row[i:])
		row[i] = int32(to)
	} else {
		b.back = append(b.back, int32(to))
	}
	b.e.edges++
	return true
}

// close publishes the open row. Its capacity is clipped so a later
// AddEdge on it reallocates instead of overwriting the next row.
func (b *EdgeBuilder) close() {
	if b.open >= 0 {
		end := len(b.back)
		b.e.adj[b.open] = b.back[b.start:end:end]
		b.open = -1
	}
}

// Finish returns the built edge set. The builder must not be used
// afterwards.
func (b *EdgeBuilder) Finish() *EdgeSet {
	b.close()
	e := b.e
	*b = EdgeBuilder{}
	return e
}

// HasEdge reports whether the directed edge exists.
func (e *EdgeSet) HasEdge(from, to int) bool {
	if from < 0 || from >= len(e.adj) {
		return false
	}
	row := e.adj[from]
	i := sort.Search(len(row), func(k int) bool { return row[k] >= int32(to) })
	return i < len(row) && row[i] == int32(to)
}

// Succs returns the successors of a node, ascending. The slice must not
// be modified.
func (e *EdgeSet) Succs(i int) []int32 { return e.adj[i] }

// Fingerprint returns an order-independent dual 64-bit digest of the
// edge set (node count included): two sets digest equal iff built from
// the same nodes and edges, regardless of AddEdge order. It is the graph
// part of ModeKey, mirroring core.TurnSet.Fingerprint.
func (e *EdgeSet) Fingerprint() (uint64, uint64) {
	const (
		edgeSeedA = 0x8f14e45fceea167a
		edgeSeedB = 0x6c62272e07bb0142
	)
	h1 := mix64(uint64(len(e.adj)) ^ edgeSeedA)
	h2 := mix64(uint64(len(e.adj)) ^ edgeSeedB)
	for from, row := range e.adj {
		for _, to := range row {
			// Ordered pair combination, so a->b and b->a digest
			// differently; per-edge mixes sum commutatively.
			v := uint64(uint32(from))*0x100000001b3 ^ uint64(uint32(to))
			h1 += mix64(v ^ edgeSeedA)
			h2 += mix64(v ^ edgeSeedB)
		}
	}
	return h1, h2
}
