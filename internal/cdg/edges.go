package cdg

import "fmt"

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
// indices [0, n), held as one CSR adjacency. Rows are kept sorted
// ascending and duplicate-free, so verification output is independent of
// insertion order.
type EdgeSet struct {
	adj csr
}

// NewEdgeSet returns an empty edge set over n nodes.
func NewEdgeSet(n int) *EdgeSet {
	e := &EdgeSet{}
	e.adj.reset(max(n, 0))
	return e
}

// NumNodes returns the node count.
func (e *EdgeSet) NumNodes() int { return e.adj.n }

// NumEdges returns the number of distinct edges added.
func (e *EdgeSet) NumEdges() int { return len(e.adj.succ) }

// AddEdge adds the directed edge from -> to (self-edges allowed: a node
// that depends on itself is a one-node cycle) and reports whether it was
// new. While senders ascend, as parsers and generators emit them, an edge
// is an amortised O(1) append; an edge for an earlier sender moves every
// later edge. Out-of-range endpoints panic — callers map their domain
// onto dense indices first.
func (e *EdgeSet) AddEdge(from, to int) bool {
	if n := e.adj.n; from < 0 || from >= n || to < 0 || to >= n {
		panic(fmt.Sprintf("cdg: EdgeSet.AddEdge(%d, %d) outside [0, %d)", from, to, n))
	}
	return e.adj.add(int32(from), int32(to), false)
}

// Grow reserves room for m more edges, so that many appends allocate
// nothing.
func (e *EdgeSet) Grow(m int) {
	if n := len(e.adj.succ); m > cap(e.adj.succ)-n {
		e.adj.succ = append(make([]int32, 0, n+m), e.adj.succ...)
	}
}

// HasEdge reports whether the directed edge exists.
func (e *EdgeSet) HasEdge(from, to int) bool {
	return from >= 0 && from < e.adj.n && e.adj.has(int32(from), int32(to))
}

// Succs returns the successors of a node, ascending. The slice must not
// be modified.
func (e *EdgeSet) Succs(i int) []int32 { return e.adj.row(int32(i)) }

// Fingerprint returns an order-independent dual 64-bit digest of the
// edge set (node count included): two sets digest equal iff built from
// the same nodes and edges, regardless of AddEdge order. It is the graph
// part of ModeKey, mirroring core.TurnSet.Fingerprint.
func (e *EdgeSet) Fingerprint() (uint64, uint64) {
	const (
		edgeSeedA = 0x8f14e45fceea167a
		edgeSeedB = 0x6c62272e07bb0142
	)
	h1 := mix64(uint64(e.adj.n) ^ edgeSeedA)
	h2 := mix64(uint64(e.adj.n) ^ edgeSeedB)
	for from := int32(0); int(from) < e.adj.n; from++ {
		for _, to := range e.adj.row(from) {
			// Ordered pair combination, so a->b and b->a digest
			// differently; per-edge mixes sum commutatively.
			v := uint64(uint32(from))*0x100000001b3 ^ uint64(uint32(to))
			h1 += mix64(v ^ edgeSeedA)
			h2 += mix64(v ^ edgeSeedB)
		}
	}
	return h1, h2
}
