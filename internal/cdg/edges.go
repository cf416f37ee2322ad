package cdg

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// This file is the engine's first topology-free surface: an EdgeSet is a
// channel dependency graph stripped down to "n nodes, directed edges",
// verified through the identical Kahn peel + residual DFS that powers
// VerifyTurnSet. The paper's reduction — deadlock freedom iff the
// dependency graph is acyclic — does not care that our concrete channels
// happen to be (link, VC) pairs of a mesh; any wait-for relation reduced
// to dense indices gets the same verdict machinery, the same determinism
// guarantees, and the same cached entry-point discipline. The first
// client is deadlint (internal/lint), which verifies the repository's own
// lock-acquisition/wait graph; the ROADMAP's "abstract channel graph"
// refactor is the second.

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
// the same nodes and edges, regardless of AddEdge order. It is the
// EdgeCache's identity, mirroring core.TurnSet.Fingerprint.
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

// EdgeReport is the verdict for an abstract edge set: the analogue of
// Report for graphs with no underlying network.
type EdgeReport struct {
	Nodes   int
	Edges   int
	Acyclic bool
	// Cycle holds one dependency cycle as node indices in dependency
	// order (the last element depends on the first) when Acyclic is
	// false.
	Cycle []int
}

// String renders the report on one line.
func (r EdgeReport) String() string {
	status := "ACYCLIC (deadlock-free)"
	if !r.Acyclic {
		parts := make([]string, len(r.Cycle))
		for i, v := range r.Cycle {
			parts[i] = fmt.Sprintf("n%d", v)
		}
		status = "CYCLIC: " + strings.Join(parts, " => ") + " => (repeat)"
	}
	return fmt.Sprintf("edge-set: %d nodes, %d edges: %s", r.Nodes, r.Edges, status)
}

// VerifyEdgeSet checks an abstract edge set for acyclicity by the same
// Kahn peel and residual-only cycle DFS as the concrete verification path.
func VerifyEdgeSet(e *EdgeSet) EdgeReport {
	obsEdgeVerifies.Inc()
	var st acyclicState
	rep := EdgeReport{Nodes: len(e.adj), Edges: e.edges}
	peeled, _ := kahnPeelAdj(context.Background(), e.adj, &st)
	if peeled == len(e.adj) {
		rep.Acyclic = true
		return rep
	}
	obsEdgeCyclic.Inc()
	idx := findCycleResidualAdj(e.adj, &st)
	rep.Cycle = make([]int, len(idx))
	for i, v := range idx {
		rep.Cycle[i] = int(v)
	}
	return rep
}

// DefaultEdgeCache is the process-wide edge-set cache behind
// VerifyEdgeSetCached.
var DefaultEdgeCache = &EdgeCache{}

// EdgeKey exposes the cache's dual-hash identity of an edge-set
// verification, decorrelated from the VerifyKey and DeltaKey families by
// its own seeds.
func EdgeKey(e *EdgeSet) (key, check uint64) {
	const (
		edgeKeySeedA = 0x2545f4914f6cdd1d
		edgeKeySeedB = 0x9e6c63d0876a9a47
	)
	f1, f2 := e.Fingerprint()
	return mix64(f1 ^ edgeKeySeedA), mix64(f2*0x100000001b3 + edgeKeySeedB)
}

// EdgeQuery is the cache query for an edge-set verification under
// EdgeKey. The peel is not cancellable, so a miss always completes.
func EdgeQuery(e *EdgeSet) Query[EdgeReport] {
	key, check := EdgeKey(e)
	return Query[EdgeReport]{Key: key, Check: check, compute: func(context.Context) (EdgeReport, error) {
		return VerifyEdgeSet(e), nil
	}}
}

// VerifyEdgeSetCached is VerifyEdgeSet through the DefaultEdgeCache — the
// blessed entry point for tooling that verifies abstract dependency
// graphs (deadlint's lock-order graph flows through here; the verifygate
// discipline of "verdicts come from the cached engine" applies to the
// checker itself).
func VerifyEdgeSetCached(e *EdgeSet) EdgeReport {
	return reportOf(DefaultEdgeCache.Verify(context.Background(), EdgeQuery(e)))
}
