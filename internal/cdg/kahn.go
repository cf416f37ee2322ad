package cdg

import (
	"context"
	"slices"

	"ebda/internal/obs/trace"
)

// This file implements the one acyclicity engine: a Kahn topological peel
// over a compressed-sparse-row adjacency, with cycle extraction by
// three-colour DFS restricted to the unpeeled residual.
//
// The peel repeatedly removes every channel whose dependency in-degree has
// dropped to zero. The maximal peel is unique — a channel is peelable iff
// no cycle reaches it, a property of the graph, not of removal order — so
// the residual (and therefore Acyclic and the extracted cycle) does not
// depend on the order channels are peeled in. The residual is
// also successor-closed: an edge from an unpeeled channel never delivered
// its decrement, so its target's in-degree stays positive. The one
// exception is a delta verification's masked channel, whose edges stay in
// the rows while the peel state treats them as removed; the residual DFS
// skips peeled successors, which only such a channel can be.

// csr is the adjacency of every dependency graph in the package — the
// concrete Graph, a delta's toggled rows, an EdgeSet and the mode
// subgraphs: node v's successors are succ[off[v]:off[v+1]], ascending.
// off covers a prefix of the n rows and the rows past it are empty, so an
// empty graph is off = [0] and clearing one is O(1). Rows filled in
// ascending order are plain appends (closeRow after each).
type csr struct {
	n    int
	off  []int32
	succ []int32
}

// reset empties the adjacency and sizes it to n nodes, keeping capacity.
func (c *csr) reset(n int) {
	c.n, c.off, c.succ = n, append(slices.Grow(c.off[:0], n+1), 0), c.succ[:0]
}

// closeRow ends the row being appended to succ; the next one opens.
func (c *csr) closeRow() { c.off = append(c.off, int32(len(c.succ))) }

// row returns v's successors, ascending. The slice must not be modified.
func (c *csr) row(v int32) []int32 {
	if int(v)+1 >= len(c.off) {
		return nil
	}
	return c.succ[c.off[v]:c.off[v+1]]
}

// has reports whether the edge from -> to exists, by binary search.
func (c *csr) has(from, to int32) bool {
	_, found := slices.BinarySearch(c.row(from), to)
	return found
}

// add inserts the edge from -> to in order and reports whether it was
// new; with dup set a repeated edge is inserted again. Appending to the
// last open row or opening a later one is amortised O(1); inserting into
// an earlier row moves every later edge, O(E).
func (c *csr) add(from, to int32, dup bool) bool {
	for len(c.off) <= int(from)+1 {
		c.closeRow()
	}
	// The last open row ends at len(succ): above its maximum, append.
	if n := len(c.succ); int(from)+2 == len(c.off) && (n == int(c.off[from]) || c.succ[n-1] < to) {
		c.succ = append(c.succ, to)
		c.off[from+1]++
		return true
	}
	lo := int(c.off[from])
	row := c.succ[lo:c.off[from+1]]
	i := len(row)
	if i > 0 && row[i-1] >= to {
		var found bool
		if i, found = slices.BinarySearch(row, to); found && !dup {
			return false
		}
	}
	c.succ = slices.Insert(c.succ, lo+i, to)
	for v := int(from) + 1; v < len(c.off); v++ {
		c.off[v]++
	}
	return true
}

// merge adds every edge of o, an adjacency over the same nodes, keeping
// rows ascending (a repeated edge is kept twice). Both are copied once
// into fresh arrays: the rare second build onto a filled graph.
func (c *csr) merge(o *csr) {
	off := make([]int32, 1, c.n+1)
	succ := make([]int32, 0, len(c.succ)+len(o.succ))
	for v := int32(0); int(v) < c.n; v++ {
		a, b := c.row(v), o.row(v)
		for len(a) > 0 && len(b) > 0 {
			if a[0] <= b[0] {
				succ, a = append(succ, a[0]), a[1:]
			} else {
				succ, b = append(succ, b[0]), b[1:]
			}
		}
		succ = append(append(succ, a...), b...)
		off = append(off, int32(len(succ)))
	}
	c.off, c.succ = off, succ
}

// inDegrees returns every node's in-degree, in buf's storage.
func (c *csr) inDegrees(buf []int32) []int32 {
	buf = slices.Grow(buf[:0], c.n)[:c.n]
	clear(buf)
	for _, s := range c.succ {
		buf[s]++
	}
	return buf
}

// subgraph fills dst with the rows of the nodes keep admits, each cut to
// the successors to marks (to nil keeps them all); the other rows are
// empty. With to nil, every run of consecutive kept rows is one copy and
// its offsets are c's, shifted.
func (c *csr) subgraph(dst *csr, keep func(v int32) bool, to []bool) {
	dst.reset(c.n)
	dst.succ = slices.Grow(dst.succ, len(c.succ))
	if to != nil {
		for v := int32(0); int(v) < c.n; v++ {
			if keep(v) {
				for _, s := range c.row(v) {
					if to[s] {
						dst.succ = append(dst.succ, s)
					}
				}
			}
			dst.closeRow()
		}
		return
	}
	// off may cover a prefix of the rows; the rows past it are empty and
	// start where succ ends.
	start := func(v int32) int32 { return c.off[min(int(v), len(c.off)-1)] }
	for v := int32(0); int(v) < c.n; {
		if !keep(v) {
			dst.closeRow()
			v++
			continue
		}
		w := v + 1
		for int(w) < c.n && keep(w) {
			w++
		}
		shift := int32(len(dst.succ)) - start(v)
		dst.succ = append(dst.succ, c.succ[start(v):start(w)]...)
		for u := v + 1; u <= w; u++ {
			dst.off = append(dst.off, start(u)+shift)
		}
		v = w
	}
}

// reverse fills r with the transpose of c, skipping the out-edges of
// every node drop marks (drop may be nil). Senders are visited ascending,
// so every reversed row comes out ascending.
func (c *csr) reverse(r *csr, drop []bool) {
	r.reset(c.n)
	r.off = r.off[:c.n+1]
	clear(r.off)
	for v := int32(0); int(v) < c.n; v++ {
		if drop == nil || !drop[v] {
			for _, s := range c.row(v) {
				r.off[s+1]++
			}
		}
	}
	for v := 0; v < c.n; v++ {
		r.off[v+1] += r.off[v]
	}
	r.succ = slices.Grow(r.succ, int(r.off[c.n]))[:r.off[c.n]]
	// off[s] is s's write cursor and ends at s's end, so a shift by one
	// turns the ends back into starts.
	for v := int32(0); int(v) < c.n; v++ {
		if drop == nil || !drop[v] {
			for _, s := range c.row(v) {
				r.succ[r.off[s]] = v
				r.off[s]++
			}
		}
	}
	copy(r.off[1:], r.off[:c.n])
	r.off[0] = 0
}

// DFS colours of findCycleResidual.
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
	// order lists the peeled channels in peel order, one round after the
	// other: a topological order of the peeled region.
	order []int32
	// color/parent/stack are the residual DFS scratch, sized lazily
	// because the common acyclic case never needs them.
	color  []uint8
	parent []int32
	stack  []dfsFrame
}

// dfsFrame is one residual DFS frame: it walks node's row as
// succ[pos:end].
type dfsFrame struct{ node, pos, end int32 }

// ctxPollRounds is how many Kahn rounds run between cancellation polls.
const ctxPollRounds = 64

// kahnPeel runs the topological peel over adj and returns the number of
// nodes peeled; the graph is acyclic iff that equals adj.n. It never
// relies on row order, so any dependency graph — concrete channels or an
// abstract EdgeSet — runs through this one engine. On return st.indeg
// marks the residual (indeg > 0) and st.order holds the peeled nodes in
// peel order.
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
func kahnPeel(ctx context.Context, adj *csr, st *acyclicState) (int, error) {
	nc := adj.n
	indeg := adj.inDegrees(st.indeg)
	st.indeg, st.order = indeg, slices.Grow(st.order[:0], nc)
	if nc == 0 {
		return 0, ctx.Err()
	}
	ksp := trace.FromContext(ctx).StartSpan("cdg.kahn")
	order := st.order
	for i := 0; i < nc; i++ {
		if indeg[i] == 0 {
			order = append(order, int32(i))
		}
	}
	rounds := uint64(0)
	off, succ := adj.off, adj.succ
	// Peel rounds: round k removes order[lo:hi], the channels the round
	// before brought to in-degree zero, and appends the ones it does.
	for lo, hi := 0, len(order); lo < hi; lo, hi = hi, len(order) {
		if rounds%ctxPollRounds == 0 {
			if err := ctx.Err(); err != nil {
				st.order = order
				obsKahnRounds.Add(rounds)
				obsVerifyCancelled.Inc()
				ksp.SetInt("rounds", int64(rounds))
				ksp.SetInt("cancelled", 1)
				ksp.End()
				return len(order), err
			}
		}
		rounds++
		for _, v := range order[lo:hi] {
			if int(v)+1 >= len(off) {
				continue // rows past off are empty
			}
			for _, s := range succ[off[v]:off[v+1]] {
				if indeg[s]--; indeg[s] == 0 {
					order = append(order, s)
				}
			}
		}
	}
	st.order = order
	peeled := len(order)
	obsKahnRounds.Add(rounds)
	ksp.SetInt("rounds", int64(rounds))
	ksp.SetInt("peeled", int64(peeled))
	ksp.End()
	return peeled, nil
}

// findCycleResidual extracts one dependency cycle from the residual left
// by kahnPeel (st.indeg > 0), which must be non-empty, as node indices in
// dependency order (the last element depends on the first). The
// three-colour DFS visits residual nodes in ascending index order over
// sorted rows, so the reported cycle depends only on the graph.
func findCycleResidual(adj *csr, st *acyclicState) []int32 {
	nc := adj.n
	st.color = slices.Grow(st.color[:0], nc)[:nc]
	st.parent = slices.Grow(st.parent[:0], nc)[:nc]
	// Only residual entries need resetting: the DFS never reads the rest
	// (it skips peeled successors).
	for i := 0; i < nc; i++ {
		if st.indeg[i] > 0 {
			st.color[i] = dfsWhite
			st.parent[i] = -1
		}
	}
	push := func(stack []dfsFrame, v int32) []dfsFrame {
		f := dfsFrame{node: v}
		if int(v)+1 < len(adj.off) {
			f.pos, f.end = adj.off[v], adj.off[v+1]
		}
		return append(stack, f)
	}
	stack := st.stack[:0]
	for start := int32(0); int(start) < nc; start++ {
		if st.indeg[start] == 0 || st.color[start] != dfsWhite {
			continue
		}
		stack = push(stack[:0], start)
		st.color[start] = dfsGrey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.pos == f.end {
				st.color[f.node] = dfsBlack
				stack = stack[:len(stack)-1]
				continue
			}
			succ := adj.succ[f.pos]
			f.pos++
			if st.indeg[succ] == 0 {
				continue
			}
			switch st.color[succ] {
			case dfsWhite:
				st.color[succ] = dfsGrey
				st.parent[succ] = f.node
				stack = push(stack, succ)
			case dfsGrey:
				// Found a cycle: walk parents from f.node back to succ
				// once to size it, then again filling it from the back
				// into dependency order. The witness is the search's
				// only allocation.
				n := 1
				for v := f.node; v != succ; v = st.parent[v] {
					n++
				}
				cyc := make([]int32, n)
				for v := f.node; ; v = st.parent[v] {
					n--
					cyc[n] = v
					if v == succ {
						break
					}
				}
				st.stack = stack
				return cyc
			}
		}
	}
	st.stack = stack
	return nil
}

// channelsOf resolves dense indices to the graph's channels.
func (g *Graph) channelsOf(idx []int32) []Channel {
	if idx == nil {
		return nil
	}
	out := make([]Channel, len(idx))
	for i, v := range idx {
		out[i] = g.Channel(int(v))
	}
	return out
}

// Acyclic reports whether the dependency graph has no cycles by the Kahn
// peel.
func (g *Graph) Acyclic() bool {
	var st acyclicState
	peeled, _ := kahnPeel(context.Background(), &g.adj, &st)
	return peeled == g.NumChannels()
}

// FindCycle returns one dependency cycle (the last element depends on the
// first), or nil if the graph is acyclic. The acyclicity test is the Kahn
// peel; cycle extraction runs only on the unpeeled residual, so the common
// acyclic case is O(V+E) and the cyclic case hands the DFS a smaller graph.
func (g *Graph) FindCycle() []Channel {
	var st acyclicState
	if peeled, _ := kahnPeel(context.Background(), &g.adj, &st); peeled == g.NumChannels() {
		return nil
	}
	return g.channelsOf(findCycleResidual(&g.adj, &st))
}

// AcyclicJobs is Acyclic. The int argument is ignored; bench/ calls this
// signature.
func (g *Graph) AcyclicJobs(_ int) bool { return g.Acyclic() }

// FindCycleJobs is FindCycle. The int argument is ignored; bench/ calls
// this signature.
func (g *Graph) FindCycleJobs(_ int) []Channel { return g.FindCycle() }
