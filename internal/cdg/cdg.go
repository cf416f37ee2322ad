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
	"sort"
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
// Adjacency lists are kept sorted ascending at all times (AddEdge inserts
// in order; the bulk constructors emit sorted runs), so membership tests
// binary-search and all traversal output depends only on the edge set.
//
// A channel's signature is its dimension, sign and VC plus its tail
// coordinate parities. Its classes depend on nothing else, and a network
// has few signatures (at most 32 in 2D with 2 VCs), so turn-edge
// construction evaluates the turn relation per signature pair.
type Graph struct {
	net      *topology.Network
	vcs      VCConfig
	channels []Channel
	// Channels are numbered in Links() order, so the channels leaving
	// node v are the index range [tailOff[v], tailOff[v+1]). The channels
	// entering v are headIdx[headOff[v]:headOff[v+1]], ascending, and
	// head[i] is channel i's head node (its Link.To).
	tailOff, headOff, headIdx, head []int32
	adj                             [][]int32
	edges                           int
	// tailIndex is the dense (node, dim, sign, vc) -> channel index table
	// behind the O(1) FindChannel; -1 marks absent channels. maxVC is the
	// per-dimension stride.
	tailIndex []int32
	maxVC     int
	// sig[i] is channel i's signature and sigs[s] the first channel with
	// signature s. par[v] holds node v's coordinate parities (bit d set
	// when odd); keySig maps a signature key to its index plus one.
	sig, sigs, keySig []int32
	par               []int
	// walk is bind's enumeration scratch and tab the turn-edge kernel's
	// per-build signature table.
	walk topology.Walker
	tab  sigTable
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
// in Links() order — source node, dimension, sign, VC — and fills the
// out-ranges, signatures and tail index as it goes; a counting pass then
// lays out the in-lists. No link list is built, tables are refilled in
// place and adjacency rows reused by index, so binding to a network the
// buffers already fit allocates nothing, however new the network.
//
//ebda:hotpath
func (g *Graph) bind(net *topology.Network, vcs VCConfig) {
	dims, nodes := net.Dims(), net.Nodes()
	g.net = net
	g.vcs = g.vcs[:0]
	g.maxVC = 1
	perNode := 0
	for d := 0; d < dims; d++ {
		v := vcs.VCs(channel.Dim(d))
		g.vcs = append(g.vcs, v)
		g.maxVC = max(g.maxVC, v)
		perNode += 2 * v
	}
	nodeSlots := dims * 2 * g.maxVC
	slots := nodes * nodeSlots
	g.tailIndex = slices.Grow(g.tailIndex[:0], slots)[:slots]
	for i := range g.tailIndex {
		g.tailIndex[i] = -1
	}
	g.par = slices.Grow(g.par[:0], nodes)[:nodes]
	g.tailOff = slices.Grow(g.tailOff[:0], nodes+1)[:nodes+1]
	g.headOff = slices.Grow(g.headOff[:0], nodes+1)[:nodes+1]
	clear(g.headOff)
	// A signature key is a channel's tail slot at node 0 (its dimension,
	// sign and VC) shifted above its tail parities. Every network has at
	// least 2^dims nodes, so keys stay below len(tailIndex) and fit an int.
	keys := dims * 2 * g.maxVC << dims
	g.keySig = slices.Grow(g.keySig[:0], keys)[:keys]
	clear(g.keySig)
	g.sigs = g.sigs[:0]
	// Every node has at most two links per dimension, so nodes*perNode
	// bounds the channel count; the tables are cut to size after the walk.
	limit := nodes * perNode
	chans := slices.Grow(g.channels[:0], limit)[:limit]
	sig := slices.Grow(g.sig[:0], limit)[:limit]
	head := slices.Grow(g.head[:0], limit)[:limit]
	nc := 0
	g.walk.Walk(net, func(v topology.NodeID, c topology.Coord, out []topology.Link) {
		p := 0
		for d, x := range c {
			p |= (x & 1) << d
		}
		g.par[v] = p
		g.tailOff[v] = int32(nc)
		base := int(v) * nodeSlots
		for _, link := range out {
			// slot0 is the link's first VC's tail slot at node 0.
			slot0 := g.tailSlot(0, link.Dim, link.Sign, 1)
			for vc := 1; vc <= g.vcs[link.Dim]; vc++ {
				ch := &chans[nc]
				ch.Link, ch.VC, ch.Index = link, vc, nc
				head[nc] = int32(link.To)
				g.headOff[link.To+1]++
				slot := slot0 + vc - 1
				g.tailIndex[base+slot] = int32(nc)
				key := slot<<dims | p
				if g.keySig[key] == 0 {
					g.sigs = append(g.sigs, int32(nc))
					g.keySig[key] = int32(len(g.sigs))
				}
				sig[nc] = g.keySig[key] - 1
				nc++
			}
		}
	})
	g.channels, g.sig, g.head = chans[:nc], sig[:nc], head[:nc]
	g.tailOff[nodes] = int32(nc)
	// headOff[v+1] counted v's in-channels; after the prefix sum headOff[v]
	// is v's first slot. Placing channels in ascending order advances each
	// headOff[v] to v's end, which the final shift turns back into starts.
	for v := 0; v < nodes; v++ {
		g.headOff[v+1] += g.headOff[v]
	}
	g.headIdx = slices.Grow(g.headIdx[:0], nc)[:nc]
	for i, h := range g.head {
		g.headIdx[g.headOff[h]] = int32(i)
		g.headOff[h]++
	}
	copy(g.headOff[1:], g.headOff[:nodes])
	g.headOff[0] = 0
	g.adj = resizeRows(g.adj, nc)
	g.edges = 0
}

// into returns the channels whose head is node v, ascending. The slice
// must not be modified.
func (g *Graph) into(v topology.NodeID) []int32 { return g.headIdx[g.headOff[v]:g.headOff[v+1]] }

// outRange returns the index range [lo, hi) of the channels whose tail is
// node v.
func (g *Graph) outRange(v topology.NodeID) (lo, hi int32) { return g.tailOff[v], g.tailOff[v+1] }

// resizeRows returns rows with length n, reusing the backing array and
// every row already in it, each truncated to length zero so it keeps its
// capacity.
func resizeRows(rows [][]int32, n int) [][]int32 {
	rows = slices.Grow(rows[:cap(rows)], max(0, n-cap(rows)))[:n]
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	return rows
}

// tailSlot computes the dense tailIndex position of (from, d, sign, vc).
func (g *Graph) tailSlot(from topology.NodeID, d channel.Dim, sign channel.Sign, vc int) int {
	s := 0
	if sign == channel.Minus {
		s = 1
	}
	return ((int(from)*g.net.Dims()+int(d))*2+s)*g.maxVC + (vc - 1)
}

// Net returns the underlying network.
func (g *Graph) Net() *topology.Network { return g.net }

// VCs returns the effective per-dimension VC counts; do not modify them.
func (g *Graph) VCs() VCConfig { return g.vcs }

// Channels returns all concrete channels. The slice must not be modified.
func (g *Graph) Channels() []Channel { return g.channels }

// NumChannels returns the number of concrete channels.
func (g *Graph) NumChannels() int { return len(g.channels) }

// NumEdges returns the number of dependency edges added so far.
func (g *Graph) NumEdges() int { return g.edges }

// AddEdge adds a dependency edge between two channel indices, keeping the
// successor list sorted.
func (g *Graph) AddEdge(from, to int) {
	g.adj[from] = insertSorted(g.adj[from], int32(to))
	g.edges++
}

// insertSorted places v into its ordered position in row. The common bulk
// case (v not below the current maximum) is a plain append.
//
//ebda:hotpath
func insertSorted(row []int32, v int32) []int32 {
	if n := len(row); n == 0 || row[n-1] <= v {
		return append(row, v)
	}
	i := sort.Search(len(row), func(k int) bool { return row[k] >= v })
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = v
	return row
}

// AddEdges adds dependency edges from one channel to every listed successor
// in a single sorted merge — the batched counterpart of AddEdge, used by
// the bulk constructors so incremental O(n) inserts stay off the hot path.
// tos may be in any order (it is sorted in place when needed). Not safe for
// concurrent use.
//
//ebda:hotpath
func (g *Graph) AddEdges(from int, tos ...int32) {
	if len(tos) == 0 {
		return
	}
	if !sortedInt32(tos) {
		sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
	}
	g.adj[from] = mergeSorted(g.adj[from], tos)
	g.edges += len(tos)
}

// sortedInt32 reports whether the slice is ascending.
func sortedInt32(s []int32) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// mergeSorted merges the ascending batch into the ascending row in one
// pass, keeping the result ascending. The common bulk case — the batch
// entirely above the current maximum, which covers every first fill of a
// freshly reset row — is a plain append. Otherwise the row grows once and
// a backwards merge avoids any temporary buffer.
//
//ebda:hotpath
func mergeSorted(row, batch []int32) []int32 {
	if len(batch) == 0 {
		return row
	}
	if n := len(row); n == 0 || row[n-1] <= batch[0] {
		return append(row, batch...)
	}
	n, b := len(row), len(batch)
	row = append(row, batch...)
	i, j, k := n-1, b-1, n+b-1
	for j >= 0 {
		if i >= 0 && row[i] > batch[j] {
			row[k] = row[i]
			i--
		} else {
			row[k] = batch[j]
			j--
		}
		k--
	}
	return row
}

// Succs returns the dependency successors of a channel index, ascending.
// The slice must not be modified.
func (g *Graph) Succs(i int) []int32 { return g.adj[i] }

// HasEdge reports whether the dependency edge from one channel index to
// another exists. Successor lists are sorted, so this is a binary search.
func (g *Graph) HasEdge(from, to int) bool {
	row := g.adj[from]
	i := sort.Search(len(row), func(k int) bool { return row[k] >= int32(to) })
	return i < len(row) && row[i] == int32(to)
}

// FindChannel locates the concrete channel leaving a node in the given
// direction on the given VC via the dense tail-index table — O(1), no
// scan of the node's channel list.
func (g *Graph) FindChannel(from topology.NodeID, d channel.Dim, sign channel.Sign, vc int) (Channel, bool) {
	if int(d) >= g.net.Dims() || vc < 1 || vc > g.maxVC {
		return Channel{}, false
	}
	if idx := g.tailIndex[g.tailSlot(from, d, sign, vc)]; idx >= 0 {
		return g.channels[idx], true
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
	for s, c := range g.sigs {
		ch, start := &g.channels[c], len(t.cls)
		for i, cls := range m.Classes() {
			if cls.Dim != ch.Link.Dim || cls.Sign != ch.Link.Sign || cls.VC != ch.VC {
				continue
			}
			if cls.Par != channel.Any && !cls.Par.Matches(g.par[ch.Link.From]>>cls.PDim&1) {
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

// AddTurnEdges adds a dependency edge for every pair of concrete channels
// (a into v, b out of v) whose classes are related by the turn set and
// returns the number of edges added. The turn relation is first evaluated
// once per signature pair (buildSigTable); each channel pair then costs
// one table lookup. Channel a's successors are the permitted channels out
// of its head node, one contiguous, ascending index range, so an empty
// row fills by appending and a non-empty one (a second build on the same
// graph) takes one sorted merge.
//
//ebda:hotpath
func (g *Graph) AddTurnEdges(ts *core.TurnSet) int {
	g.buildSigTable(ts.Matrix())
	t, n := &g.tab, len(g.sigs)
	added := 0
	var batch []int32
	for a := range g.channels {
		lo, hi := g.outRange(topology.NodeID(g.head[a]))
		allow := t.allow[int(t.id[g.sig[a]])*n:][:n]
		if row := g.adj[a]; len(row) == 0 {
			g.adj[a] = appendAllowed(row, lo, g.sig[lo:hi], allow)
			added += len(g.adj[a])
		} else {
			batch = appendAllowed(batch[:0], lo, g.sig[lo:hi], allow)
			g.adj[a] = mergeSorted(row, batch)
			added += len(batch)
		}
	}
	g.edges += added
	return added
}

// AddTurnEdgesJobs is AddTurnEdges. The int argument is ignored; bench/
// calls this signature.
func (g *Graph) AddTurnEdgesJobs(ts *core.TurnSet, _ int) int { return g.AddTurnEdges(ts) }

// appendAllowed appends to dst every out-channel lo+k whose signature
// sigs[k] the in-channel's allow row admits.
func appendAllowed(dst []int32, lo int32, sigs []int32, allow []bool) []int32 {
	for k, s := range sigs {
		if allow[s] {
			dst = append(dst, lo+int32(k))
		}
	}
	return dst
}

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
// rows are then expanded in ascending order into sorted successor lists.
func (g *Graph) AddRoutingEdges(route RoutingRelation) int {
	nc := len(g.channels)
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
		for i := range usable {
			usable[i] = false
		}
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
			ch := g.channels[ai]
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
	// Expand each row's set bits in ascending order and land the batch in
	// a single sorted merge.
	added := 0
	var batch []int32
	for a := 0; a < nc; a++ {
		batch = batch[:0]
		for i, word := range seen[a*words : (a+1)*words] {
			for ; word != 0; word &= word - 1 {
				batch = append(batch, int32(i*64+bits.TrailingZeros64(word)))
			}
		}
		if len(batch) == 0 {
			continue
		}
		g.adj[a] = mergeSorted(g.adj[a], batch)
		added += len(batch)
	}
	g.edges += added
	return added
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
	n := len(g.channels)
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
	// Adjacency rows are sorted ascending, so the self-loop test is a
	// binary search instead of a linear scan.
	selfLoop := func(v int32) bool {
		row := g.adj[v]
		i := sort.Search(len(row), func(k int) bool { return row[k] >= v })
		return i < len(row) && row[i] == v
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
			for f.next < len(g.adj[v]) {
				w := g.adj[v][f.next]
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
				if len(comp) > 1 || (len(comp) == 1 && selfLoop(v)) {
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
