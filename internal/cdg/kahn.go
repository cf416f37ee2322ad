package cdg

import (
	"context"

	"ebda/internal/obs/trace"
)

// This file implements the acyclicity fast path: a Kahn topological peel,
// with cycle extraction by three-colour DFS restricted to the unpeeled
// residual.
//
// The peel repeatedly removes every channel whose dependency in-degree has
// dropped to zero. The maximal peel is unique — a channel is peelable iff
// no cycle reaches it, a property of the graph, not of removal order — so
// the residual (and therefore Acyclic and the extracted cycle) does not
// depend on the order channels are peeled in. The residual is
// also successor-closed: an edge from an unpeeled channel never delivered
// its decrement, so its target's in-degree stays positive. DFS started
// from residual channels therefore never leaves the residual and needs no
// membership tests on successors.

// DFS colours shared by findCycleResidual and FindCycle.
const (
	dfsWhite = 0
	dfsGrey  = 1
	dfsBlack = 2
)

// acyclicState is the reusable scratch of one Kahn peel + residual DFS.
// The zero value is ready to use; Workspaces keep one across
// verifications so the common acyclic case allocates nothing after the
// first run.
type acyclicState struct {
	// indeg[i] is channel i's remaining dependency in-degree; after the
	// peel, indeg[i] > 0 marks the residual.
	indeg []int32
	// frontier/swap double-buffer the zero in-degree wavefront.
	frontier []int32
	swap     []int32
	// color/parent are the residual DFS scratch, sized lazily because the
	// common acyclic case never needs them.
	color  []uint8
	parent []int32
}

// ensure sizes the peel scratch for n channels, zeroing in-degrees.
func (st *acyclicState) ensure(n int) {
	if cap(st.indeg) < n {
		st.indeg = make([]int32, n)
	} else {
		st.indeg = st.indeg[:n]
		for i := range st.indeg {
			st.indeg[i] = 0
		}
	}
	st.frontier = st.frontier[:0]
	st.swap = st.swap[:0]
}

// ctxPollRounds is how many Kahn rounds run between cancellation polls.
const ctxPollRounds = 64

// kahnPeel runs the topological peel and returns the number of channels
// peeled; the graph is acyclic iff that equals NumChannels. On return
// st.indeg marks the residual (indeg > 0).
//
// ctx is checked before the first frontier round and then every
// ctxPollRounds rounds (rounds are the only unbounded dimension of the
// peel; one round is on average a few channels), so a server deadline
// stops the work within the latency of ctxPollRounds rounds without
// paying ctx.Err's lock on every round. On cancellation the peel stops
// early and returns ctx's error; the partial peel count must not be used
// for a verdict.
//
//ebda:hotpath
func (g *Graph) kahnPeel(ctx context.Context, st *acyclicState) (int, error) {
	return kahnPeelAdj(ctx, g.adj, st)
}

// kahnPeelAdj is the representation-agnostic peel behind Graph.kahnPeel
// and the abstract EdgeSet verification: it needs only the adjacency rows
// (sorted or not — the peel never relies on row order), so any dependency
// graph reduced to dense int32 successor lists runs through the one
// engine.
//
//ebda:hotpath
func kahnPeelAdj(ctx context.Context, adj [][]int32, st *acyclicState) (int, error) {
	nc := len(adj)
	st.ensure(nc)
	if nc == 0 {
		return 0, ctx.Err()
	}
	ksp := trace.FromContext(ctx).StartSpan("cdg.kahn")
	indeg := st.indeg
	for i := 0; i < nc; i++ {
		for _, s := range adj[i] {
			indeg[s]++
		}
	}
	frontier := st.frontier
	for i := 0; i < nc; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, int32(i))
		}
	}
	peeled := len(frontier)
	rounds := uint64(0)
	// Peel rounds: each round removes the current frontier and discovers
	// the channels whose in-degree that drops to zero.
	for len(frontier) > 0 {
		if rounds%ctxPollRounds == 0 {
			if err := ctx.Err(); err != nil {
				st.frontier = frontier
				obsKahnRounds.Add(rounds)
				obsVerifyCancelled.Inc()
				ksp.SetInt("rounds", int64(rounds))
				ksp.SetInt("cancelled", 1)
				ksp.End()
				return peeled, err
			}
		}
		rounds++
		out := st.swap[:0]
		for _, v := range frontier {
			for _, s := range adj[v] {
				if indeg[s]--; indeg[s] == 0 {
					out = append(out, s)
				}
			}
		}
		st.swap, frontier = frontier, out
		peeled += len(frontier)
	}
	st.frontier = frontier
	obsKahnRounds.Add(rounds)
	ksp.SetInt("rounds", int64(rounds))
	ksp.SetInt("peeled", int64(peeled))
	ksp.End()
	return peeled, nil
}

// findCycleResidual extracts one dependency cycle from the residual left
// by kahnPeel (st.indeg > 0), which must be non-empty. The three-colour
// DFS visits residual channels in ascending index order over sorted
// adjacency, so the reported cycle depends only on the graph.
func (g *Graph) findCycleResidual(st *acyclicState) []Channel {
	idx := findCycleResidualAdj(g.adj, st)
	if idx == nil {
		return nil
	}
	cyc := make([]Channel, len(idx))
	for i, v := range idx {
		cyc[i] = g.channels[v]
	}
	return cyc
}

// findCycleResidualAdj is findCycleResidual on bare adjacency rows,
// returning the cycle as dense indices in dependency order (the last
// element depends on the first). It is shared by the concrete Graph and
// the abstract EdgeSet verification.
func findCycleResidualAdj(adj [][]int32, st *acyclicState) []int32 {
	nc := len(adj)
	if cap(st.color) < nc {
		st.color = make([]uint8, nc)
		st.parent = make([]int32, nc)
	}
	st.color = st.color[:nc]
	st.parent = st.parent[:nc]
	// Only residual entries need resetting: the DFS never reads the rest
	// (the residual is successor-closed).
	for i := 0; i < nc; i++ {
		if st.indeg[i] > 0 {
			st.color[i] = dfsWhite
			st.parent[i] = -1
		}
	}
	type frame struct {
		node int32
		next int
	}
	var stack []frame
	for start := 0; start < nc; start++ {
		if st.indeg[start] == 0 || st.color[start] != dfsWhite {
			continue
		}
		stack = append(stack[:0], frame{node: int32(start)})
		st.color[start] = dfsGrey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				succ := adj[f.node][f.next]
				f.next++
				switch st.color[succ] {
				case dfsWhite:
					st.color[succ] = dfsGrey
					st.parent[succ] = f.node
					stack = append(stack, frame{node: succ})
				case dfsGrey:
					// Found a cycle: walk parents from f.node back to
					// succ, then reverse into dependency order.
					var cyc []int32
					for v := f.node; ; v = st.parent[v] {
						cyc = append(cyc, v)
						if v == succ {
							break
						}
					}
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				}
			} else {
				st.color[f.node] = dfsBlack
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// AcyclicJobs reports whether the graph has no cycles by the Kahn peel.
// The int argument is ignored; bench/ calls this signature.
func (g *Graph) AcyclicJobs(_ int) bool {
	var st acyclicState
	peeled, _ := g.kahnPeel(context.Background(), &st)
	return peeled == len(g.channels)
}

// FindCycleJobs returns one dependency cycle (the last element depends on
// the first), or nil if the graph is acyclic. The acyclicity test is the
// Kahn peel; cycle extraction runs only on the unpeeled residual, so the
// common acyclic case is O(V+E) and the cyclic case hands the DFS a
// smaller graph. The int argument is ignored; bench/ calls this signature.
func (g *Graph) FindCycleJobs(_ int) []Channel {
	var st acyclicState
	if peeled, _ := g.kahnPeel(context.Background(), &st); peeled == len(g.channels) {
		return nil
	}
	return g.findCycleResidual(&st)
}
