// Package routing turns deadlock-free designs into executable routing
// algorithms and provides the classic baselines the paper discusses:
// dimension-order routing, the Glass/Ni turn models (West-First,
// North-Last, Negative-First), Chiu's Odd-Even model, Elevator-First for
// vertically partially connected 3D networks, and dateline routing for
// tori.
//
// An Algorithm answers one question: given where a packet is, the channel
// it arrived on and its destination, which output channels may it request?
// The wormhole simulator (internal/sim) consumes this interface directly,
// and internal/cdg can verify any Algorithm by extracting its full routing
// relation.
package routing

import (
	"fmt"
	"sync"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// Algorithm is a distributed routing function.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Candidates returns the output channels a packet at cur may request
	// toward dst. in is the channel the packet arrived on, nil at the
	// injection port. The returned classes are concrete requests
	// (dimension, direction, VC; parity always Any). An empty result for
	// cur != dst means the algorithm is broken for that situation.
	Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class
}

// productiveDirs returns the minimal (productive) hop directions from cur
// to dst.
func productiveDirs(net *topology.Network, cur, dst topology.NodeID) []channel.Class {
	var out []channel.Class
	for d, off := range net.MinimalOffsets(cur, dst) {
		if off == 0 {
			continue
		}
		sign := channel.Plus
		if off < 0 {
			sign = channel.Minus
		}
		if net.HasLink(cur, channel.Dim(d), sign) {
			out = append(out, channel.New(channel.Dim(d), sign))
		}
	}
	return out
}

// DOR is deterministic dimension-order routing: dimensions are fully
// corrected one at a time in Order; XY routing is DOR with order {X, Y}.
type DOR struct {
	// Order lists the dimensions in correction order. Empty means
	// ascending dimension order.
	Order []channel.Dim
	// VC is the virtual channel used (1 by default).
	VC   int
	name string
}

// NewXY returns 2D XY routing.
func NewXY() *DOR { return &DOR{Order: []channel.Dim{channel.X, channel.Y}, name: "xy"} }

// NewYX returns 2D YX routing.
func NewYX() *DOR { return &DOR{Order: []channel.Dim{channel.Y, channel.X}, name: "yx"} }

// NewDOR returns dimension-order routing over the given dimension order.
func NewDOR(name string, order ...channel.Dim) *DOR { return &DOR{Order: order, name: name} }

// Name implements Algorithm.
func (a *DOR) Name() string {
	if a.name == "" {
		return "dor"
	}
	return a.name
}

// Candidates implements Algorithm.
func (a *DOR) Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class {
	offs := net.MinimalOffsets(cur, dst)
	order := a.Order
	if len(order) == 0 {
		order = make([]channel.Dim, net.Dims())
		for d := range order {
			order[d] = channel.Dim(d)
		}
	}
	vc := a.VC
	if vc == 0 {
		vc = 1
	}
	for _, d := range order {
		if offs[d] == 0 {
			continue
		}
		sign := channel.Plus
		if offs[d] < 0 {
			sign = channel.Minus
		}
		return []channel.Class{channel.NewVC(d, sign, vc)}
	}
	return nil
}

// TurnModel2D is a rule-based 2D partially adaptive algorithm in the
// classic priority formulation: the "first" directions must be exhausted
// before any other hop is taken, and the "last" direction may only be
// taken when it is the sole remaining one. This is how West-First,
// North-Last and Negative-First are implemented in practice — a pure
// prohibited-turn filter would offer hops that dead-end.
type TurnModel2D struct {
	name string
	// first reports directions that take priority over everything else.
	first func(channel.Class) bool
	// last reports the direction that may only be taken when alone.
	last func(channel.Class) bool
}

// NewWestFirst returns the West-First turn model: all west (X-) hops are
// taken first; afterwards routing among E/N/S is fully adaptive.
func NewWestFirst() *TurnModel2D {
	return &TurnModel2D{name: "west-first",
		first: func(c channel.Class) bool { return c.Dim == channel.X && c.Sign == channel.Minus }}
}

// NewNorthLast returns the North-Last turn model: north (Y+) hops are taken
// only when no other productive direction remains; routing among E/W/S is
// fully adaptive.
func NewNorthLast() *TurnModel2D {
	return &TurnModel2D{name: "north-last",
		last: func(c channel.Class) bool { return c.Dim == channel.Y && c.Sign == channel.Plus }}
}

// NewNegativeFirst returns the Negative-First turn model: all negative
// hops (W and S) are taken first, adaptively; then the positive hops,
// adaptively.
func NewNegativeFirst() *TurnModel2D {
	return &TurnModel2D{name: "negative-first",
		first: func(c channel.Class) bool { return c.Sign == channel.Minus }}
}

// Name implements Algorithm.
func (a *TurnModel2D) Name() string { return a.name }

// Candidates implements Algorithm.
func (a *TurnModel2D) Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class {
	dirs := productiveDirs(net, cur, dst)
	if a.first != nil {
		var priority []channel.Class
		for _, d := range dirs {
			if a.first(d) {
				priority = append(priority, d)
			}
		}
		if len(priority) > 0 {
			return priority
		}
		return dirs
	}
	if a.last != nil {
		var rest []channel.Class
		for _, d := range dirs {
			if !a.last(d) {
				rest = append(rest, d)
			}
		}
		if len(rest) > 0 {
			return rest
		}
		return dirs
	}
	return dirs
}

// OddEven is Chiu's Odd-Even turn model, implemented with the conditions
// of the original ROUTE function (which avoid the dead ends a naive
// prohibited-turn filter would create):
//
//   - eastbound with a row offset: N/S may be taken at odd columns, or
//     when the packet did not arrive on an eastbound channel (injection or
//     arrival on a Y channel); E may be taken unless it would enter an
//     even destination column that still needs a row correction;
//   - westbound: W is always available; N/S only at even columns.
type OddEven struct{}

// NewOddEven returns the Odd-Even baseline.
func NewOddEven() *OddEven { return &OddEven{} }

// Name implements Algorithm.
func (a *OddEven) Name() string { return "odd-even" }

// Candidates implements Algorithm.
func (a *OddEven) Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class {
	c, d := net.Coord(cur), net.Coord(dst)
	dx := d[channel.X] - c[channel.X]
	dy := d[channel.Y] - c[channel.Y]
	ySign := channel.Plus
	if dy < 0 {
		ySign = channel.Minus
	}
	yHop := channel.New(channel.Y, ySign)
	var out []channel.Class
	switch {
	case dx == 0 && dy == 0:
		return nil
	case dx == 0:
		out = append(out, yHop)
	case dx > 0: // eastbound
		if dy == 0 {
			out = append(out, channel.New(channel.X, channel.Plus))
			break
		}
		odd := c[channel.X]%2 != 0
		arrivedEast := in != nil && in.Dim == channel.X && in.Sign == channel.Plus
		if odd || !arrivedEast {
			out = append(out, yHop)
		}
		if d[channel.X]%2 != 0 || dx != 1 {
			out = append(out, channel.New(channel.X, channel.Plus))
		}
	default: // westbound
		out = append(out, channel.New(channel.X, channel.Minus))
		if dy != 0 && c[channel.X]%2 == 0 {
			out = append(out, yHop)
		}
	}
	return out
}

// Unrestricted is minimal fully adaptive routing with NO deadlock
// avoidance: every productive direction on VC 1 is always a candidate.
// Its channel dependency graph is cyclic and the simulator's watchdog
// catches it deadlocking under load — the adversarial contrast case for
// the EbDa designs.
type Unrestricted struct{}

// NewUnrestricted returns the deadlock-capable adversarial baseline.
func NewUnrestricted() *Unrestricted { return &Unrestricted{} }

// Name implements Algorithm.
func (a *Unrestricted) Name() string { return "unrestricted" }

// Candidates implements Algorithm.
func (a *Unrestricted) Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class {
	return productiveDirs(net, cur, dst)
}

// TargetFn computes the node a packet should currently steer toward; it
// lets chain-derived algorithms route via waypoints (e.g. elevators in
// partially connected networks). The default steers directly to the
// destination.
type TargetFn func(net *topology.Network, cur, dst topology.NodeID) topology.NodeID

// FromChain derives a routing algorithm from an EbDa partition chain: a
// packet may request every productive output channel whose class the
// chain's turn relation lets it take after the class it holds.
type FromChain struct {
	name  string
	chain *core.Chain
	turns *core.TurnSet
	vcs   []int
	// classes caches the turn set's class list.
	classes []channel.Class
	// target, when non-nil, redirects productivity toward a waypoint.
	target TargetFn
	// reachMemo caches final canReach results under mu; Candidates is
	// safe for concurrent use (concurrent verifications and simulator
	// seeds share one FromChain).
	mu        sync.RWMutex
	reachMemo map[reachKey]bool
}

type reachKey struct {
	node topology.NodeID
	cls  channel.Class
	dst  topology.NodeID
}

// NewFromChain builds the algorithm for a chain under the default turn
// options (Theorems 1-3 with U/I turns). The VC configuration is derived
// from the chain's channels.
func NewFromChain(name string, chain *core.Chain, dims int) *FromChain {
	ts := chain.AllTurns()
	vcs := make([]int, dims)
	for i := range vcs {
		vcs[i] = 1
	}
	for _, c := range chain.Channels() {
		if int(c.Dim) < dims && c.VC > vcs[c.Dim] {
			vcs[c.Dim] = c.VC
		}
	}
	return &FromChain{
		name: name, chain: chain, turns: ts, vcs: vcs,
		classes:   ts.Classes(),
		reachMemo: make(map[reachKey]bool),
	}
}

// NewFromChainWithTarget is NewFromChain with a waypoint function (see
// TargetFn).
func NewFromChainWithTarget(name string, chain *core.Chain, dims int, target TargetFn) *FromChain {
	a := NewFromChain(name, chain, dims)
	a.target = target
	return a
}

// Name implements Algorithm.
func (a *FromChain) Name() string { return a.name }

// Chain returns the underlying partition chain.
func (a *FromChain) Chain() *core.Chain { return a.chain }

// Turns returns the extracted turn relation.
func (a *FromChain) Turns() *core.TurnSet { return a.turns }

// VCs returns the per-dimension VC counts the design uses.
func (a *FromChain) VCs() []int { return a.vcs }

// matchAt returns the design classes a concrete channel instantiates when
// its tail is at the given coordinate.
func (a *FromChain) matchAt(coord topology.Coord, d channel.Dim, sign channel.Sign, vc int) []channel.Class {
	var out []channel.Class
	for _, cls := range a.classes {
		if cls.Dim != d || cls.Sign != sign || cls.VC != vc {
			continue
		}
		if cls.Par != channel.Any && !cls.Par.Matches(coord[cls.PDim]) {
			continue
		}
		out = append(out, cls)
	}
	return out
}

// Candidates implements Algorithm.
func (a *FromChain) Candidates(net *topology.Network, cur topology.NodeID, in *channel.Class, dst topology.NodeID) []channel.Class {
	curCoord := net.Coord(cur)
	// Reconstruct the abstract classes of the input channel. The input
	// channel's tail is one hop back along its own dimension; parity
	// dimensions are orthogonal, so cur's coordinates are valid there.
	var inClasses []channel.Class
	if in != nil {
		inClasses = a.matchAt(curCoord, in.Dim, in.Sign, in.VC)
	}
	steer := dst
	if a.target != nil {
		steer = a.target(net, cur, dst)
	}
	var out []channel.Class
	for _, dir := range productiveDirs(net, cur, steer) {
		next, _, ok := net.Neighbor(cur, dir.Dim, dir.Sign)
		if !ok {
			continue
		}
		for vc := 1; vc <= a.vcs[dir.Dim]; vc++ {
			viable := false
			for _, oc := range a.matchAt(curCoord, dir.Dim, dir.Sign, vc) {
				allowed := in == nil
				if !allowed {
					for _, ic := range inClasses {
						if a.turns.Allows(ic, oc) {
							allowed = true
							break
						}
					}
				}
				// Reject hops that strand the packet: from the new
				// class state the destination must stay reachable.
				if allowed && a.canReach(net, next, oc, dst) {
					viable = true
					break
				}
			}
			if viable {
				out = append(out, dir.WithVC(vc))
			}
		}
	}
	return out
}

// canReach reports whether a packet at node holding abstract class cls can
// still reach dst taking productive hops the turn relation permits.
// Final results are memoised under the lock; the conservative in-progress
// guard that treats re-entered states as unreachable (productive hops
// cannot revisit a state, so it never fires on well-formed targets) stays
// local to one recursion so concurrent callers never observe a transient
// value as an answer.
func (a *FromChain) canReach(net *topology.Network, node topology.NodeID, cls channel.Class, dst topology.NodeID) bool {
	if node == dst {
		return true
	}
	key := reachKey{node: node, cls: cls, dst: dst}
	a.mu.RLock()
	v, ok := a.reachMemo[key]
	a.mu.RUnlock()
	if ok {
		return v
	}
	return a.canReachRec(net, node, cls, dst, map[reachKey]bool{})
}

func (a *FromChain) canReachRec(net *topology.Network, node topology.NodeID, cls channel.Class, dst topology.NodeID, visiting map[reachKey]bool) bool {
	if node == dst {
		return true
	}
	key := reachKey{node: node, cls: cls, dst: dst}
	a.mu.RLock()
	v, ok := a.reachMemo[key]
	a.mu.RUnlock()
	if ok {
		return v
	}
	if visiting[key] {
		return false
	}
	visiting[key] = true
	steer := dst
	if a.target != nil {
		steer = a.target(net, node, dst)
	}
	coord := net.Coord(node)
	result := false
loop:
	for _, dir := range productiveDirs(net, node, steer) {
		next, _, ok := net.Neighbor(node, dir.Dim, dir.Sign)
		if !ok {
			continue
		}
		for vc := 1; vc <= a.vcs[dir.Dim]; vc++ {
			for _, oc := range a.matchAt(coord, dir.Dim, dir.Sign, vc) {
				if !a.turns.Allows(cls, oc) {
					continue
				}
				if a.canReachRec(net, next, oc, dst, visiting) {
					result = true
					break loop
				}
			}
		}
	}
	delete(visiting, key)
	a.mu.Lock()
	a.reachMemo[key] = result
	a.mu.Unlock()
	return result
}

// String renders the algorithm for diagnostics.
func (a *FromChain) String() string {
	return fmt.Sprintf("%s: %s", a.name, a.chain.PlainString())
}
