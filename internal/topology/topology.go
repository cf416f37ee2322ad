// Package topology models the direct-network topologies the paper assumes
// (Assumption 3): n-dimensional meshes, k-ary n-cubes (tori), and irregular
// variants such as vertically partially connected 3D networks, for arbitrary
// n and k.
//
// A Network is a set of nodes at integer coordinates plus the unidirectional
// physical links between neighbours. Virtual channels are layered on top by
// internal/cdg and internal/sim; the topology only describes geometry.
package topology

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"ebda/internal/channel"
)

// NodeID identifies a node; IDs are dense in [0, Nodes()).
type NodeID int

// Coord is a node position, one integer per dimension.
type Coord []int

// Equal reports whether two coordinates are identical.
func (c Coord) Equal(o Coord) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the coordinate.
func (c Coord) Clone() Coord { return append(Coord(nil), c...) }

// String renders the coordinate as "(x,y,z)".
func (c Coord) String() string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Link is one unidirectional physical link between neighbouring nodes.
type Link struct {
	From, To NodeID
	// Dim and Sign give the direction of travel along the link. For a
	// torus wraparound link the sign still reflects logical direction
	// (the +k-1 -> 0 link has Sign Plus).
	Dim  channel.Dim
	Sign channel.Sign
	// Wrap marks torus wraparound links.
	Wrap bool
}

// LinkFilter decides whether a physical link exists; used for irregular
// networks. It receives the source coordinate and the direction; the
// coordinate is only valid during the call and must not be modified.
type LinkFilter func(from Coord, dim channel.Dim, sign channel.Sign) bool

// Network is a (possibly irregular) n-dimensional grid network.
type Network struct {
	name    string
	dims    []int
	wrap    []bool
	strides []int
	nodes   int
	filter  LinkFilter

	// linksOnce/links memoize the link enumeration: the geometry is
	// immutable after build, and verification workspaces, caches and
	// graph constructors all consume the same list.
	linksOnce sync.Once
	links     []Link
}

// NewMesh returns an n-dimensional mesh with the given per-dimension sizes,
// e.g. NewMesh(8, 8) for an 8x8 2D mesh.
func NewMesh(sizes ...int) *Network {
	return build("mesh", sizes, make([]bool, len(sizes)), nil)
}

// NewTorus returns a k-ary n-cube: every dimension has wraparound links.
func NewTorus(sizes ...int) *Network {
	wrap := make([]bool, len(sizes))
	for i := range wrap {
		wrap[i] = true
	}
	return build("torus", sizes, wrap, nil)
}

// NewIrregular returns a mesh with the given sizes where links exist only
// where the filter allows. The filter is consulted for each direction of
// each potential link independently.
func NewIrregular(name string, sizes []int, filter LinkFilter) *Network {
	return build(name, sizes, make([]bool, len(sizes)), filter)
}

// NewPartialMesh3D returns a vertically partially connected 3D network
// (as targeted by Elevator-First routing): an X x Y x Z stack of 2D meshes
// where vertical (Z) links exist only at the listed elevator columns,
// given as [x, y] positions.
func NewPartialMesh3D(x, y, z int, elevators [][2]int) *Network {
	evs := make(map[[2]int]bool, len(elevators))
	for _, e := range elevators {
		evs[e] = true
	}
	filter := func(from Coord, dim channel.Dim, sign channel.Sign) bool {
		if dim != channel.Z {
			return true
		}
		return evs[[2]int{from[0], from[1]}]
	}
	return build("partial-3d", []int{x, y, z}, []bool{false, false, false}, filter)
}

// WithoutLinks returns a copy of the network in which the listed
// unidirectional links are faulty (absent). Fault injection composes with
// any existing irregularity filter. Links are identified by their source
// coordinate and direction.
func (n *Network) WithoutLinks(faults []Link) *Network {
	type key struct {
		from NodeID
		dim  channel.Dim
		sign channel.Sign
	}
	bad := make(map[key]bool, len(faults))
	for _, f := range faults {
		bad[key{f.From, f.Dim, f.Sign}] = true
	}
	inner := n.filter
	filter := func(from Coord, dim channel.Dim, sign channel.Sign) bool {
		if inner != nil && !inner(from, dim, sign) {
			return false
		}
		// Reconstruct the source node ID from the coordinate.
		id := 0
		for i, x := range from {
			id += x * n.strides[i]
		}
		return !bad[key{NodeID(id), dim, sign}]
	}
	net := build(n.name+"-faulty", n.dims, n.wrap, filter)
	return net
}

func build(name string, sizes []int, wrap []bool, filter LinkFilter) *Network {
	if len(sizes) == 0 {
		panic("topology: network needs at least one dimension")
	}
	n := 1
	strides := make([]int, len(sizes))
	for i, s := range sizes {
		if s < 2 {
			panic(fmt.Sprintf("topology: dimension %d size %d < 2", i, s))
		}
		strides[i] = n
		n *= s
	}
	return &Network{
		name:    name,
		dims:    append([]int(nil), sizes...),
		wrap:    append([]bool(nil), wrap...),
		strides: strides,
		nodes:   n,
		filter:  filter,
	}
}

// Name returns the topology family name ("mesh", "torus", ...).
func (n *Network) Name() string { return n.name }

// Regular reports whether the network is fully described by its sizes and
// wraparound flags (no irregularity filter). Regular networks of equal
// shape have identical link sets, which verification caches exploit.
func (n *Network) Regular() bool { return n.filter == nil }

// Dims returns the number of dimensions.
func (n *Network) Dims() int { return len(n.dims) }

// Size returns the extent of one dimension.
func (n *Network) Size(d channel.Dim) int { return n.dims[d] }

// Sizes returns the per-dimension extents. The slice must not be modified.
func (n *Network) Sizes() []int { return n.dims }

// Wrap reports whether a dimension has wraparound (torus) links.
func (n *Network) Wrap(d channel.Dim) bool { return n.wrap[d] }

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return n.nodes }

// Coord returns the coordinate of a node ID.
func (n *Network) Coord(id NodeID) Coord {
	c := make(Coord, len(n.dims))
	v := int(id)
	for i, s := range n.dims {
		c[i] = v % s
		v /= s
	}
	return c
}

// ID returns the node ID for a coordinate.
func (n *Network) ID(c Coord) NodeID {
	v := 0
	for i, x := range c {
		v += x * n.strides[i]
	}
	return NodeID(v)
}

// InBounds reports whether the coordinate lies inside the network.
func (n *Network) InBounds(c Coord) bool {
	if len(c) != len(n.dims) {
		return false
	}
	for i, x := range c {
		if x < 0 || x >= n.dims[i] {
			return false
		}
	}
	return true
}

// Neighbor returns the node reached from id by one hop in direction
// (d, sign) and whether that link exists (considering bounds, wraparound,
// and the irregularity filter). wrapped reports whether the hop used a
// wraparound link.
func (n *Network) Neighbor(id NodeID, d channel.Dim, sign channel.Sign) (to NodeID, wrapped, ok bool) {
	return n.step(id, n.Coord(id), d, sign)
}

// Allows reports whether the irregularity filter keeps the link leaving
// coordinate c in direction (d, sign). It does not check that the link
// stays inside the grid, and on a regular network it is always true. c is
// only read.
func (n *Network) Allows(c Coord, d channel.Dim, sign channel.Sign) bool {
	return n.filter == nil || n.filter(c, d, sign)
}

// step is Neighbor for a node whose coordinate c is already known; c is
// only read.
func (n *Network) step(id NodeID, c Coord, d channel.Dim, sign channel.Sign) (to NodeID, wrapped, ok bool) {
	if !n.Allows(c, d, sign) {
		return 0, false, false
	}
	x := c[int(d)] + int(sign)
	switch {
	case x < 0:
		if !n.wrap[d] {
			return 0, false, false
		}
		x = n.dims[d] - 1
		wrapped = true
	case x >= n.dims[d]:
		if !n.wrap[d] {
			return 0, false, false
		}
		x = 0
		wrapped = true
	}
	return id + NodeID((x-c[int(d)])*n.strides[d]), wrapped, true
}

// HasLink reports whether the unidirectional link from id in direction
// (d, sign) exists.
func (n *Network) HasLink(id NodeID, d channel.Dim, sign channel.Sign) bool {
	_, _, ok := n.Neighbor(id, d, sign)
	return ok
}

// FindLink resolves the unidirectional link leaving id in direction
// (d, sign) to its canonical Link value (To and Wrap filled in), or false
// if no such link exists. Delta diffs identify faulty links by source and
// direction; this helper normalises that identification to the same Link
// values Links() enumerates.
func (n *Network) FindLink(id NodeID, d channel.Dim, sign channel.Sign) (Link, bool) {
	if int(id) < 0 || int(id) >= n.nodes || int(d) < 0 || int(d) >= len(n.dims) {
		return Link{}, false
	}
	to, wrapped, ok := n.Neighbor(id, d, sign)
	if !ok {
		return Link{}, false
	}
	return Link{From: id, To: to, Dim: d, Sign: sign, Wrap: wrapped}, true
}

// Links returns every unidirectional physical link in the network, ordered
// by source node, then dimension, then sign (+ before -). The list is
// computed once by a Walker and shared; the returned slice must not be
// modified.
func (n *Network) Links() []Link {
	n.linksOnce.Do(func() {
		links := make([]Link, 0, n.nodes*len(n.dims)*2)
		var w Walker
		w.Walk(n, func(_ NodeID, _ Coord, out []Link) {
			links = append(links, out...)
		})
		n.links = links
	})
	return n.links
}

// Walker is the network's one link enumeration: Walk visits every node in
// ID order with the links leaving it, so the concatenated out-lists are
// exactly Links(). The zero value is ready to use, and a Walker keeps its
// coordinate and link scratch across walks, so walking any network no
// larger in dimension count than an earlier one allocates nothing.
type Walker struct {
	c   Coord
	out []Link
}

// Walk calls fn for every node of n in ID order with its coordinate and
// its outgoing links (by dimension, then sign, + before -). The
// coordinate advances odometer-style, and neighbours come from
// per-dimension arithmetic; the irregularity filter is consulted only on
// irregular networks. fn must not modify c or out, nor keep them past
// the call: both are the Walker's scratch.
func (w *Walker) Walk(n *Network, fn func(id NodeID, c Coord, out []Link)) {
	dims := len(n.dims)
	if cap(w.c) < dims {
		w.c, w.out = make(Coord, dims), make([]Link, 0, 2*dims)
	}
	c := w.c[:dims]
	clear(c)
	buf := w.out[:2*dims]
	for id := NodeID(0); int(id) < n.nodes; id++ {
		k := 0
		for d := 0; d < dims; d++ {
			for _, sign := range [2]channel.Sign{channel.Plus, channel.Minus} {
				if to, wrapped, ok := n.step(id, c, channel.Dim(d), sign); ok {
					buf[k] = Link{From: id, To: to, Dim: channel.Dim(d), Sign: sign, Wrap: wrapped}
					k++
				}
			}
		}
		fn(id, c, buf[:k])
		for d := range c {
			if c[d]++; c[d] < n.dims[d] {
				break
			}
			c[d] = 0
		}
	}
}

// MinimalOffsets returns, per dimension, the signed hop count of a minimal
// route from src to dst. In wraparound dimensions the shorter way around is
// chosen (ties resolve to the positive direction).
func (n *Network) MinimalOffsets(src, dst NodeID) []int {
	a, b := n.Coord(src), n.Coord(dst)
	out := make([]int, len(n.dims))
	for i := range n.dims {
		delta := b[i] - a[i]
		if n.wrap[i] {
			k := n.dims[i]
			alt := delta
			switch {
			case delta > 0 && delta > k/2:
				alt = delta - k
			case delta < 0 && -delta > k/2:
				alt = delta + k
			case delta < 0 && -delta == k-(-delta): // unreachable; keep delta
			}
			if abs(alt) < abs(delta) || (abs(alt) == abs(delta) && alt > 0) {
				delta = alt
			}
		}
		out[i] = delta
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// MinimalHops returns the length of a minimal route from src to dst.
func (n *Network) MinimalHops(src, dst NodeID) int {
	total := 0
	for _, d := range n.MinimalOffsets(src, dst) {
		total += abs(d)
	}
	return total
}

// MinimalPathCount returns the number of distinct minimal direction
// sequences from src to dst: the multinomial coefficient over the
// per-dimension offsets. This is the denominator of the paper's "fully
// adaptive" property.
func (n *Network) MinimalPathCount(src, dst NodeID) int {
	offs := n.MinimalOffsets(src, dst)
	total := 0
	for _, d := range offs {
		total += abs(d)
	}
	count := 1
	remaining := total
	for _, d := range offs {
		count *= binomial(remaining, abs(d))
		remaining -= abs(d)
	}
	return count
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}

// String describes the network, e.g. "8x8 mesh".
func (n *Network) String() string {
	// One stack buffer and one string allocation: every verification
	// labels its Report with this.
	var arr [64]byte
	buf := arr[:0]
	for i, s := range n.dims {
		if i > 0 {
			buf = append(buf, 'x')
		}
		buf = strconv.AppendInt(buf, int64(s), 10)
	}
	buf = append(buf, ' ')
	buf = append(buf, n.name...)
	return string(buf)
}

// ParseSizes parses a per-dimension size list such as "8x8" or "4x4x4",
// the spelling every command's -mesh and -torus flags take. Each size
// must be at least 2.
func ParseSizes(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	sizes := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad size %q", p)
		}
		sizes[i] = v
	}
	return sizes, nil
}
