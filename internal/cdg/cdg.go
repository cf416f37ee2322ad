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
// A node's out-channels depend only on its class (classKey): its
// coordinate parities, the dimensions it sits on the low or high boundary
// of and, on an irregular network, which of its grid links the filter
// removes. A network has few classes (at most 16 in a regular 2D one), so
// bind stamps every node's channels from its class's template, and the
// turn-edge kernel evaluates the relation once per signature list and
// head class.
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
	// cls[v] is node v's class. Class k's out-channels are the template
	// slots [tplOff[k], tplOff[k+1]), slot j a channel with signature
	// tplSig[j] whose head is its tail plus tplDelta[j]. classes interns
	// the class keys, and coord is bind's odometer.
	cls, tplOff, tplSig, tplDelta []int32
	classes                       classTable
	coord                         topology.Coord
	// mat and tab are the turn-edge kernel's per-build allow-matrix and
	// signature table.
	mat core.AllowMatrix
	tab sigTable
}

// sigInfo describes one signature: the direction and VC its channels
// share and their tail coordinate parities (bit d set when odd).
type sigInfo struct {
	dim  channel.Dim
	sign channel.Sign
	vc   int
	par  int
}

// classKey identifies a node class. state holds two bits per dimension d
// at bit 2d: the coordinate's parity (0 or 1) inside the grid, 2 on the
// low boundary, 3 on the high one. cut sets bit 2d (2d+1) when the
// irregularity filter removes the node's + (−) grid link in d. Two bits
// per dimension fit 32 dimensions, more than any network whose 2^dims
// nodes can be enumerated has.
type classKey struct{ state, cut uint64 }

// classTable interns class keys: keys[k] is class k's key, and slot is an
// open-addressed hash table of them holding the class index plus one (0
// free), probed from the key's multiplicative hash shifted right by shift.
type classTable struct {
	keys  []classKey
	slot  []int32
	shift uint
}

// reset empties the table, sized for at most n classes.
//
//ebda:hotpath
func (t *classTable) reset(n int) {
	size, shift := 8, uint(61)
	for size < 2*n {
		size, shift = size<<1, shift-1
	}
	t.keys, t.shift = t.keys[:0], shift
	t.slot = slices.Grow(t.slot[:0], size)[:size]
	clear(t.slot)
}

// find returns the index of key's class, or -1 and the free slot that
// records a new class with that key.
//
//ebda:hotpath
func (t *classTable) find(key classKey) (int32, int) {
	mask := len(t.slot) - 1
	i := int((key.state*0x9e3779b97f4a7c15 ^ key.cut*0xc2b2ae3d27d4eb4f) >> t.shift)
	for ; ; i = (i + 1) & mask {
		if k := t.slot[i]; k == 0 || t.keys[k-1] == key {
			return k - 1, i
		}
	}
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
// pooled Workspace's rebind, for regular and irregular networks alike.
// It walks the node IDs with an odometer coordinate and keeps each node's
// class key up to date; the first node of a class builds the class's
// template (addClass), and every node copies its class's template into
// the channel tables. No link list is built and every table is refilled
// in place, so binding to a network the buffers already fit allocates
// nothing, however new the network.
//
//ebda:hotpath
func (g *Graph) bind(net *topology.Network, vcs VCConfig) {
	dims, nodes, sizes := net.Dims(), net.Nodes(), net.Sizes()
	irregular := !net.Regular()
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
	// A dimension has at most four states and, on an irregular network,
	// four cut patterns, which bounds the class count below the nodes'.
	classes, keyBits := nodes, 2*dims
	if irregular {
		keyBits *= 2
	}
	if keyBits < 30 {
		classes = min(classes, 1<<keyBits)
	}
	g.classes.reset(classes)
	g.tplOff, g.tplSig, g.tplDelta = append(g.tplOff[:0], 0), g.tplSig[:0], g.tplDelta[:0]
	g.cls = slices.Grow(g.cls[:0], nodes)[:nodes]
	g.tailOff = slices.Grow(g.tailOff[:0], nodes+1)[:nodes+1]
	c := slices.Grow(g.coord[:0], dims)[:dims]
	clear(c)
	g.coord = c
	// Every node has at most two links per dimension, so nodes*perNode
	// bounds the channel count; the tables are cut to size after the walk.
	limit := nodes * perNode
	sig := slices.Grow(g.sig[:0], limit)[:limit]
	head := slices.Grow(g.head[:0], limit)[:limit]
	tail := slices.Grow(g.tail[:0], limit)[:limit]
	// Node 0 sits on the low boundary of every dimension.
	var state uint64
	for d := 0; d < dims; d++ {
		state |= 2 << (2 * d)
	}
	nc := int32(0)
	for v := int32(0); int(v) < nodes; v++ {
		key := classKey{state: state}
		if irregular {
			key.cut = cuts(net, c)
		}
		k, at := g.classes.find(key)
		if k < 0 {
			k = g.addClass(key, at, c, maxVC)
		}
		g.cls[v] = k
		g.tailOff[v] = nc
		lo, hi := g.tplOff[k], g.tplOff[k+1]
		end := nc + hi - lo
		copy(sig[nc:end], g.tplSig[lo:hi])
		hs, ts := head[nc:end], tail[nc:end]
		for j, delta := range g.tplDelta[lo:hi] {
			hs[j], ts[j] = v+delta, v
		}
		nc = end
		// Advance the odometer and the state bits of every dimension it
		// moves: a coordinate that wraps to 0 carries into the next one.
		for d, size := range sizes {
			x, st := c[d]+1, uint64(2)
			switch {
			case x == size:
				x = 0
			case x == size-1:
				st = 3
			default:
				st = uint64(x & 1)
			}
			c[d] = x
			state = state&^(3<<(2*d)) | st<<(2*d)
			if x != 0 {
				break
			}
		}
	}
	g.sig, g.head, g.tail = sig[:nc], head[:nc], tail[:nc]
	g.tailOff[nodes] = nc
	g.adj.reset(int(nc))
}

// cuts returns the cut bits of a classKey for the node at coordinate c:
// which of its grid links the irregularity filter removes.
//
//ebda:hotpath
func cuts(net *topology.Network, c topology.Coord) uint64 {
	var cut uint64
	for d, size := range net.Sizes() {
		dim, wrap := channel.Dim(d), net.Wrap(channel.Dim(d))
		if (c[d]+1 < size || wrap) && !net.Allows(c, dim, channel.Plus) {
			cut |= 1 << (2 * d)
		}
		if (c[d] > 0 || wrap) && !net.Allows(c, dim, channel.Minus) {
			cut |= 2 << (2 * d)
		}
	}
	return cut
}

// addClass records a new class, with key key, in the class table's free
// slot at and appends its template, read off the node at coordinate c:
// the node's out-channels in Links() order (dimension, sign + before −,
// VC), each as its signature, interned on first sight, and its head's
// node-ID delta, which on a boundary of a wrapped dimension is the
// wraparound's. maxVC is bind's signature-key stride.
//
//ebda:hotpath
func (g *Graph) addClass(key classKey, at int, c topology.Coord, maxVC int) int32 {
	dims, p := len(c), 0
	for d, x := range c {
		p |= (x & 1) << d
	}
	stride := 1
	for d, size := range g.net.Sizes() {
		dim, x := channel.Dim(d), c[d]
		for s, sign := range [2]channel.Sign{channel.Plus, channel.Minus} {
			y := x + int(sign)
			if y < 0 || y >= size {
				if !g.net.Wrap(dim) {
					continue
				}
				y = (y + size) % size
			}
			if key.cut>>(2*d+s)&1 != 0 {
				continue
			}
			delta, slot := int32((y-x)*stride), (2*d+s)*maxVC
			for vc := 1; vc <= g.vcs[d]; vc++ {
				sk := (slot+vc-1)<<dims | p
				if g.keySig[sk] == 0 {
					g.sigs = append(g.sigs, sigInfo{dim: dim, sign: sign, vc: vc, par: p})
					g.keySig[sk] = int32(len(g.sigs))
				}
				g.tplSig = append(g.tplSig, g.keySig[sk]-1)
				g.tplDelta = append(g.tplDelta, delta)
			}
		}
		stride *= size
	}
	g.tplOff = append(g.tplOff, int32(len(g.tplSig)))
	t := &g.classes
	t.keys = append(t.keys, key)
	t.slot[at] = int32(len(t.keys))
	return int32(len(t.keys) - 1)
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
// signature s. pat[k*C+c] (C node classes) is 0 until pattern has
// evaluated list k against class c, then r: offs[patOff[r-1]:patOff[r]]
// are the allowed offsets within such a node's out-range. Buffers are
// reused, so a warm table allocates nothing.
type sigTable struct {
	cls, off, id, first []int32
	allow               []bool
	pat, patOff, offs   []int32
}

// list returns the classes signature s instantiates.
func (t *sigTable) list(s int32) []int32 { return t.cls[t.off[s]:t.off[s+1]] }

// buildSigTable fills g.tab for the matrix: one class-matching pass per
// signature and one AllowsAny per pair of distinct class lists, whose
// verdict is then copied to every signature holding the second list. Parity
// restrictions read the signature's tail parities (a channel does not move
// in dimensions other than its own, so head and tail agree there except on
// its own-dimension wraparound, which parity classes may not reference).
// The per-class patterns start empty.
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
	pats := len(t.first) * len(g.classes.keys)
	t.pat = slices.Grow(t.pat[:0], pats)[:pats]
	clear(t.pat)
	t.patOff, t.offs = append(t.patOff[:0], 0), t.offs[:0]
}

// pattern evaluates signature list k against node class c: it appends
// to g.tab.offs the ascending offsets, within a class-c node's out-range,
// of the channels a channel with list k may depend on, and returns the
// pattern's pat entry.
//
//ebda:hotpath
func (g *Graph) pattern(k, c int32) int32 {
	t, n := &g.tab, len(g.sigs)
	allow := t.allow[int(k)*n:][:n]
	for j, s := range g.tplSig[g.tplOff[c]:g.tplOff[c+1]] {
		if allow[s] {
			t.offs = append(t.offs, int32(j))
		}
	}
	t.patOff = append(t.patOff, int32(len(t.offs)))
	return int32(len(t.patOff) - 1)
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
// once per signature pair (buildSigTable), and then once per signature
// list and head class into the offsets it allows within the head's
// out-range (pattern); channel a's successors are its head's out-range
// base plus each offset of its pattern, ascending, so the rows fill in one
// sequential pass over the CSR with no per-candidate test.
//
//ebda:hotpath
func (g *Graph) AddTurnEdges(ts *core.TurnSet) int {
	ts.MatrixInto(&g.mat)
	g.buildSigTable(&g.mat)
	t, classes := &g.tab, int32(len(g.classes.keys))
	dst := g.buildTarget()
	off, succ := dst.off, dst.succ
	for a, h := range g.head {
		// allowed(g.sig[a], g.cls[h]), written out: the call costs the
		// kernel about a tenth.
		k, c := t.id[g.sig[a]], g.cls[h]
		r := t.pat[k*classes+c]
		if r == 0 {
			r = g.pattern(k, c)
			t.pat[k*classes+c] = r
		}
		base := g.tailOff[h]
		for _, o := range t.offs[t.patOff[r-1]:t.patOff[r]] {
			succ = append(succ, base+o)
		}
		off = append(off, int32(len(succ)))
	}
	dst.off, dst.succ = off, succ
	return g.mergeBuilt(dst)
}

// allowed returns the offsets, within a class-c node's out-range, of the
// channels a channel with signature s into such a node may depend on,
// evaluating the pattern on first use.
//
//ebda:hotpath
func (g *Graph) allowed(s, c int32) []int32 {
	t := &g.tab
	i := t.id[s]*int32(len(g.classes.keys)) + c
	r := t.pat[i]
	if r == 0 {
		r = g.pattern(t.id[s], c)
		t.pat[i] = r
	}
	return t.offs[t.patOff[r-1]:t.patOff[r]]
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
