// Package cdg builds concrete channel dependency graphs and checks them for
// cycles — Dally's necessary-and-sufficient condition for deadlock freedom
// that the EbDa theory constructs designs against.
//
// A concrete channel is one unidirectional physical link of a topology
// paired with a virtual-channel number. Given a turn set extracted from an
// EbDa partition chain (or any other turn relation), the graph contains a
// dependency edge from channel a (into node v) to channel b (out of node v)
// whenever the relation permits the transition between their channel
// classes. The EbDa theorems claim every chain-derived relation yields an
// acyclic graph; this package verifies that claim mechanically, and exposes
// the same machinery for adversarial designs that should contain cycles.
package cdg

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// VCConfig gives the number of virtual channels per dimension. A nil or
// short config defaults missing dimensions to 1.
type VCConfig []int

// VCs returns the VC count for a dimension (at least 1).
func (v VCConfig) VCs(d channel.Dim) int {
	if int(d) < len(v) && v[d] > 0 {
		return v[d]
	}
	return 1
}

// Uniform returns a VCConfig with the same VC count in every one of n
// dimensions.
func Uniform(n, vcs int) VCConfig {
	cfg := make(VCConfig, n)
	for i := range cfg {
		cfg[i] = vcs
	}
	return cfg
}

// VCConfigFor derives the VC configuration implied by a set of channel
// classes: each dimension gets as many VCs as the largest VC number
// mentioned for it.
func VCConfigFor(nDims int, classes []channel.Class) VCConfig {
	cfg := make(VCConfig, nDims)
	for i := range cfg {
		cfg[i] = 1
	}
	for _, c := range classes {
		if int(c.Dim) < nDims && c.VC > cfg[c.Dim] {
			cfg[c.Dim] = c.VC
		}
	}
	return cfg
}

// Channel is one concrete channel: a physical link plus a VC number.
type Channel struct {
	Link topology.Link
	VC   int
	// Index is the channel's dense index within its Graph.
	Index int
}

// Class returns the channel's intrinsic class (dimension, sign, VC; no
// parity restriction).
func (c Channel) Class() channel.Class {
	return channel.NewVC(c.Link.Dim, c.Link.Sign, c.VC)
}

// String renders the channel as "n1->n2 X1+": tail and head node IDs,
// then the class.
func (c Channel) String() string {
	var buf [32]byte
	return string(c.appendTo(buf[:0]))
}

// appendTo appends the channel's String form to b.
func (c Channel) appendTo(b []byte) []byte {
	b = strconv.AppendInt(append(b, 'n'), int64(c.Link.From), 10)
	b = strconv.AppendInt(append(b, "->n"...), int64(c.Link.To), 10)
	return c.Class().AppendTo(append(b, ' '))
}

// Graph is a channel dependency graph over a concrete network.
//
// Channels are numbered in Links() order — source node, dimension, sign,
// VC — and the graph keeps only the int32 tables the kernels read: the
// channels leaving node v are the index range [tailOff[v], tailOff[v+1]),
// channel i runs from tail[i] to head[i], and sig[i] names its signature.
// Everything else about a channel derives from those in O(1) (Channel).
//
// A channel's signature is its dimension, sign and VC plus its tail
// coordinate parities. Its classes depend on nothing else, and a network
// has few signatures (at most 32 in 2D with 2 VCs), so turn-edge
// construction evaluates the turn relation per signature pair.
//
// The dependency edges are one CSR adjacency whose rows are kept sorted
// ascending, so membership tests binary-search and all traversal output
// depends only on the edge set.
type Graph struct {
	net                 *topology.Network
	vcs                 VCConfig
	tailOff, head, tail []int32
	adj                 csr
	// sig[i] is channel i's signature, described by sigs[sig[i]]; keySig
	// maps a signature key to its index plus one.
	sig, keySig []int32
	sigs        []sigInfo
	// walk is bind's enumeration scratch; mat and tab are the turn-edge
	// kernel's per-build allow-matrix and signature table.
	walk topology.Walker
	mat  core.AllowMatrix
	tab  sigTable
}

// sigInfo describes one signature: the direction and VC its channels
// share and their tail coordinate parities (bit d set when odd).
type sigInfo struct {
	dim  channel.Dim
	sign channel.Sign
	vc   int
	par  int
}

// NewGraph enumerates the concrete channels of the network under the VC
// configuration; the graph starts with no dependency edges.
func NewGraph(net *topology.Network, vcs VCConfig) *Graph {
	g := &Graph{}
	g.bind(net, vcs)
	return g
}

// bind enumerates the concrete channels of the network under the VC
// configuration, with no edges: the one fill path of NewGraph and of a
// pooled Workspace's rebind. One walk over the grid numbers the channels
// and writes each one's tail, head and signature, nothing more. No link
// list is built and every table is refilled in place, so binding to a
// network the buffers already fit allocates nothing, however new the
// network.
//
//ebda:hotpath
func (g *Graph) bind(net *topology.Network, vcs VCConfig) {
	dims, nodes := net.Dims(), net.Nodes()
	g.net = net
	g.vcs = g.vcs[:0]
	maxVC, perNode := 1, 0
	for d := 0; d < dims; d++ {
		v := vcs.VCs(channel.Dim(d))
		g.vcs = append(g.vcs, v)
		maxVC = max(maxVC, v)
		perNode += 2 * v
	}
	// A signature key is a channel's direction slot (dimension, sign, VC)
	// shifted above its tail parities.
	keys := dims * 2 * maxVC << dims
	g.keySig = slices.Grow(g.keySig[:0], keys)[:keys]
	clear(g.keySig)
	g.sigs = g.sigs[:0]
	g.tailOff = slices.Grow(g.tailOff[:0], nodes+1)[:nodes+1]
	// Every node has at most two links per dimension, so nodes*perNode
	// bounds the channel count; the tables are cut to size after the walk.
	limit := nodes * perNode
	sig := slices.Grow(g.sig[:0], limit)[:limit]
	head := slices.Grow(g.head[:0], limit)[:limit]
	tail := slices.Grow(g.tail[:0], limit)[:limit]
	nc := 0
	g.walk.Walk(net, func(v topology.NodeID, c topology.Coord, out []topology.Link) {
		p := 0
		for d, x := range c {
			p |= (x & 1) << d
		}
		g.tailOff[v] = int32(nc)
		for _, link := range out {
			slot := int(link.Dim) * 2
			if link.Sign == channel.Minus {
				slot++
			}
			slot *= maxVC
			for vc := 1; vc <= g.vcs[link.Dim]; vc++ {
				key := (slot+vc-1)<<dims | p
				if g.keySig[key] == 0 {
					g.sigs = append(g.sigs, sigInfo{dim: link.Dim, sign: link.Sign, vc: vc, par: p})
					g.keySig[key] = int32(len(g.sigs))
				}
				sig[nc], head[nc], tail[nc] = g.keySig[key]-1, int32(link.To), int32(v)
				nc++
			}
		}
	})
	g.sig, g.head, g.tail = sig[:nc], head[:nc], tail[:nc]
	g.tailOff[nodes] = int32(nc)
	g.adj.reset(nc)
}

// Channel returns channel i, derived from its tail, head and signature.
// A link wraps around when it runs against its sign: node IDs order like
// the coordinate of the one dimension the link moves in.
func (g *Graph) Channel(i int) Channel {
	s := &g.sigs[g.sig[i]]
	from, to := g.tail[i], g.head[i]
	return Channel{Link: topology.Link{
		From: topology.NodeID(from), To: topology.NodeID(to), Dim: s.dim, Sign: s.sign,
		Wrap: (s.sign == channel.Plus) == (to < from),
	}, VC: s.vc, Index: i}
}

// appendInto appends the channels whose head is node v to dst, ascending.
// Each leaves one of v's at most 2·dims grid neighbours (wraparound
// included), so it scans those nodes' out-ranges in ascending node order.
func (g *Graph) appendInto(dst []int32, v topology.NodeID) []int32 {
	var buf [16]int32
	nbs := buf[:0]
	stride := 1
	for d, size := range g.net.Sizes() {
		x := int(v) / stride % size
		for _, y := range [2]int{x - 1, x + 1} {
			if y < 0 || y >= size {
				if !g.net.Wrap(channel.Dim(d)) {
					continue
				}
				y = (y + size) % size
			}
			// Both directions of a 2-wide ring reach the same node.
			if u := int32(int(v) + (y-x)*stride); len(nbs) == 0 || nbs[len(nbs)-1] != u {
				nbs = append(nbs, u)
			}
		}
		stride *= size
	}
	slices.Sort(nbs)
	for _, u := range nbs {
		for i := g.tailOff[u]; i < g.tailOff[u+1]; i++ {
			if g.head[i] == int32(v) {
				dst = append(dst, i)
			}
		}
	}
	return dst
}

// outRange returns the index range [lo, hi) of the channels whose tail is
// node v.
func (g *Graph) outRange(v topology.NodeID) (lo, hi int32) { return g.tailOff[v], g.tailOff[v+1] }

// Net returns the underlying network.
func (g *Graph) Net() *topology.Network { return g.net }

// VCs returns the effective per-dimension VC counts; do not modify them.
func (g *Graph) VCs() VCConfig { return g.vcs }

// NumChannels returns the number of concrete channels.
func (g *Graph) NumChannels() int { return len(g.sig) }

// NumEdges returns the number of dependency edges added so far.
func (g *Graph) NumEdges() int { return len(g.adj.succ) }

// AddEdge adds a dependency edge between two channel indices, keeping the
// successor list sorted. Edges added to the last filled row or later
// append; an earlier row costs a shift of every later edge.
func (g *Graph) AddEdge(from, to int) { g.adj.add(int32(from), int32(to), true) }

// Succs returns the dependency successors of a channel index, ascending.
// The slice must not be modified.
func (g *Graph) Succs(i int) []int32 { return g.adj.row(int32(i)) }

// HasEdge reports whether the dependency edge from one channel index to
// another exists. Successor lists are sorted, so this is a binary search.
func (g *Graph) HasEdge(from, to int) bool { return g.adj.has(int32(from), int32(to)) }

// FindChannel locates the concrete channel leaving a node in the given
// direction on the given VC by scanning the node's out-range, at most
// 2·dims·maxVC channels, through the signature table.
func (g *Graph) FindChannel(from topology.NodeID, d channel.Dim, sign channel.Sign, vc int) (Channel, bool) {
	for i := g.tailOff[from]; i < g.tailOff[from+1]; i++ {
		if s := &g.sigs[g.sig[i]]; s.dim == d && s.sign == sign && s.vc == vc {
			return g.Channel(int(i)), true
		}
	}
	return Channel{}, false
}

// sigTable is the turn relation seen through a graph's signatures,
// rebuilt per matrix by buildSigTable. cls[off[s]:off[s+1]] lists the
// matrix classes signature s instantiates; id[s] interns identical lists,
// first[k] being the first signature holding list k; allow[k*S+s] (S
// signatures) says whether a channel with list k may depend on one with
// signature s. Buffers are reused, so a warm table allocates nothing.
type sigTable struct {
	cls, off, id, first []int32
	allow               []bool
}

// list returns the classes signature s instantiates.
func (t *sigTable) list(s int32) []int32 { return t.cls[t.off[s]:t.off[s+1]] }

// buildSigTable fills g.tab for the matrix: one class-matching pass per
// signature and one AllowsAny per pair of distinct class lists, whose
// verdict is then copied to every signature holding the second list. Parity
// restrictions read the signature's tail parities (a channel does not move
// in dimensions other than its own, so head and tail agree there except on
// its own-dimension wraparound, which parity classes may not reference).
//
//ebda:hotpath
func (g *Graph) buildSigTable(m *core.AllowMatrix) {
	t := &g.tab
	t.cls, t.off, t.id, t.first = t.cls[:0], append(t.off[:0], 0), t.id[:0], t.first[:0]
	for s := range g.sigs {
		si, start := &g.sigs[s], len(t.cls)
		for i, cls := range m.Classes() {
			if cls.Dim != si.dim || cls.Sign != si.sign || cls.VC != si.vc {
				continue
			}
			if cls.Par != channel.Any && !cls.Par.Matches(si.par>>cls.PDim&1) {
				continue
			}
			t.cls = append(t.cls, int32(i))
		}
		t.off = append(t.off, int32(len(t.cls)))
		k := 0
		for k < len(t.first) && !slices.Equal(t.list(t.first[k]), t.cls[start:]) {
			k++
		}
		if k == len(t.first) {
			t.first = append(t.first, int32(s))
		}
		t.id = append(t.id, int32(k))
	}
	n := len(g.sigs)
	t.allow = slices.Grow(t.allow[:0], len(t.first)*n)[:len(t.first)*n]
	for k, a := range t.first {
		row := t.allow[k*n : (k+1)*n]
		for _, b := range t.first {
			row[b] = m.AllowsAny(t.list(a), t.list(b))
		}
		for s := range row {
			row[s] = row[t.first[t.id[s]]]
		}
	}
}

// buildTarget returns the adjacency a bulk build appends its rows to, in
// channel order: the graph's own when it has no edges yet, else scratch
// that mergeBuilt then folds in.
func (g *Graph) buildTarget() *csr {
	dst := &g.adj
	if len(dst.succ) > 0 {
		dst = &csr{}
	}
	dst.reset(g.NumChannels())
	return dst
}

// mergeBuilt folds a build from buildTarget into the graph and returns
// the number of edges it added.
func (g *Graph) mergeBuilt(dst *csr) int {
	if dst != &g.adj {
		g.adj.merge(dst)
	}
	return len(dst.succ)
}

// AddTurnEdges adds a dependency edge for every pair of concrete channels
// (a into v, b out of v) whose classes are related by the turn set and
// returns the number of edges added. The turn relation is first evaluated
// once per signature pair (buildSigTable); each channel pair then costs
// one table lookup. Channel a's successors are the permitted channels out
// of its head node, one contiguous, ascending index range, so the rows
// fill in one sequential pass over the CSR.
//
//ebda:hotpath
func (g *Graph) AddTurnEdges(ts *core.TurnSet) int {
	ts.MatrixInto(&g.mat)
	g.buildSigTable(&g.mat)
	t, n := &g.tab, len(g.sigs)
	dst := g.buildTarget()
	off, succ := dst.off, dst.succ
	for a, h := range g.head {
		lo, hi := g.tailOff[h], g.tailOff[h+1]
		allow := t.allow[int(t.id[g.sig[a]])*n:][:n]
		for k, s := range g.sig[lo:hi] {
			if allow[s] {
				succ = append(succ, lo+int32(k))
			}
		}
		off = append(off, int32(len(succ)))
	}
	dst.off, dst.succ = off, succ
	return g.mergeBuilt(dst)
}

// AddTurnEdgesJobs is AddTurnEdges. The int argument is ignored; bench/
// calls this signature.
func (g *Graph) AddTurnEdgesJobs(ts *core.TurnSet, _ int) int { return g.AddTurnEdges(ts) }

// RoutingRelation describes a routing function for dependency extraction:
// given the node a packet is at, the concrete channel it arrived on (nil at
// injection) and its destination, it returns the indices of the concrete
// channels the packet may take next.
type RoutingRelation func(g *Graph, at topology.NodeID, in *Channel, dst topology.NodeID) []int

// AddRoutingEdges adds a dependency edge a->b whenever some destination
// exists for which a packet that can actually occupy channel a (reachable
// from some injection under the routing function) may request channel b.
// This is the classic Dally construction: for each destination a forward
// closure is computed from the injection candidates of every source, and
// only transitions of reachable packet states become dependencies. The
// edges every destination induces are recorded in one dense bitset, whose
// rows are then expanded in ascending order into the CSR.
func (g *Graph) AddRoutingEdges(route RoutingRelation) int {
	nc := g.NumChannels()
	if nc == 0 {
		return 0
	}
	nodes := g.net.Nodes()
	words := (nc + 63) / 64
	// seen is the nc x nc edge bitset, rows of `words` words.
	seen := make([]uint64, nc*words)
	usable := make([]bool, nc)
	queue := make([]int32, 0, nc)
	for dst := topology.NodeID(0); int(dst) < nodes; dst++ {
		clear(usable)
		queue = queue[:0]
		// Injection states: the candidates offered to freshly injected
		// packets at every source.
		for src := topology.NodeID(0); int(src) < nodes; src++ {
			if src == dst {
				continue
			}
			for _, bi := range route(g, src, nil, dst) {
				if !usable[bi] {
					usable[bi] = true
					queue = append(queue, int32(bi))
				}
			}
		}
		// Forward closure.
		for len(queue) > 0 {
			ai := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ch := g.Channel(int(ai))
			at := ch.Link.To
			if at == dst {
				continue
			}
			row := seen[int(ai)*words:]
			for _, bi := range route(g, at, &ch, dst) {
				row[bi/64] |= 1 << uint(bi%64)
				if !usable[bi] {
					usable[bi] = true
					queue = append(queue, int32(bi))
				}
			}
		}
	}
	// Expand each row's set bits in ascending order.
	out := g.buildTarget()
	for a := 0; a < nc; a++ {
		for i, word := range seen[a*words : (a+1)*words] {
			for ; word != 0; word &= word - 1 {
				out.succ = append(out.succ, int32(i*64+bits.TrailingZeros64(word)))
			}
		}
		out.closeRow()
	}
	return g.mergeBuilt(out)
}

// BuildFromTurnSet constructs the dependency graph induced by a turn set on
// a network.
func BuildFromTurnSet(net *topology.Network, vcs VCConfig, ts *core.TurnSet) *Graph {
	g := NewGraph(net, vcs)
	g.AddTurnEdges(ts)
	return g
}

// BuildFromTurnSetJobs is BuildFromTurnSet. The int argument is ignored;
// bench/ calls this signature.
func BuildFromTurnSetJobs(net *topology.Network, vcs VCConfig, ts *core.TurnSet, _ int) *Graph {
	return BuildFromTurnSet(net, vcs, ts)
}

// SCCs returns the strongly connected components with more than one channel
// or with a self-loop — the deadlock-capable cores of the graph. Components
// are returned as channel index lists. An empty result means acyclic.
func (g *Graph) SCCs() [][]int {
	n := g.NumChannels()
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		counter int32
		stack   []int32
		out     [][]int
	)
	type frame struct {
		v    int32
		next int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		call := []frame{{v: int32(root)}}
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.next == 0 {
				index[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for row := g.adj.row(v); f.next < len(row); {
				w := row[f.next]
				f.next++
				if index[w] == -1 {
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, int(w))
					if w == v {
						break
					}
				}
				if len(comp) > 1 || (len(comp) == 1 && g.adj.has(v, v)) {
					out = append(out, comp)
				}
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return out
}

// FormatCycle renders a dependency cycle for diagnostics.
func FormatCycle(cyc []Channel) string {
	if len(cyc) == 0 {
		return "<acyclic>"
	}
	// "n12->n13 X1+ => " is 16 bytes; longer IDs grow the buffer once.
	b := make([]byte, 0, 20*len(cyc)+8)
	for _, c := range cyc {
		b = append(c.appendTo(b), " => "...)
	}
	return string(append(b, "(repeat)"...))
}

// Report summarises a verification run.
type Report struct {
	Network  string
	Channels int
	Edges    int
	Acyclic  bool
	// Cycle holds one example dependency cycle when Acyclic is false.
	Cycle []Channel
}

// String renders the report on one line.
func (r Report) String() string {
	status := "ACYCLIC (deadlock-free)"
	if !r.Acyclic {
		status = "CYCLIC: " + FormatCycle(r.Cycle)
	}
	return fmt.Sprintf("%s: %d channels, %d dependencies: %s",
		r.Network, r.Channels, r.Edges, status)
}

// VerifyTurnSet builds the dependency graph of a turn set on a network and
// checks acyclicity. The build runs in a Workspace from DefaultPool, which
// serves every network shape: the channel table, adjacency rows and
// acyclicity scratch of an earlier verification are refilled in place
// instead of reallocated.
//
//ebda:hotpath
func VerifyTurnSet(net *topology.Network, vcs VCConfig, ts *core.TurnSet) Report {
	rep, _ := VerifyTurnSetCtx(context.Background(), net, vcs, ts)
	return rep
}

// VerifyTurnSetJobs is VerifyTurnSet. The int argument is ignored; bench/
// calls this signature.
func VerifyTurnSetJobs(net *topology.Network, vcs VCConfig, ts *core.TurnSet, _ int) Report {
	return VerifyTurnSet(net, vcs, ts)
}

// VerifyTurnSetCtx is VerifyTurnSet with a deadline: cancellation is
// observed before the build and at Kahn round boundaries and returns ctx's
// error with a zero Report. A cancelled verification never produces a
// verdict, so the served result is always backed by a completed CDG check;
// the workspace is returned to the pool either way (its buffers are
// re-zeroed on the next use).
func VerifyTurnSetCtx(ctx context.Context, net *topology.Network, vcs VCConfig, ts *core.TurnSet) (Report, error) {
	ws := DefaultPool.Get(net, vcs)
	rep, err := ws.verify(ctx, ts)
	DefaultPool.Put(ws)
	return rep, err
}

// VerifyChain extracts the full turn set of a chain (Theorems 1-3, U/I
// turns included) and verifies it on the network, deriving the VC
// configuration from the chain's channels.
func VerifyChain(net *topology.Network, chain *core.Chain) Report {
	vcs := VCConfigFor(net.Dims(), chain.Channels())
	return VerifyTurnSet(net, vcs, chain.AllTurns())
}
