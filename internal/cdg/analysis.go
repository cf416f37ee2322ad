package cdg

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// ConnectivityReport summarises whether a turn relation can deliver packets
// between all node pairs of a network.
type ConnectivityReport struct {
	Pairs       int
	Unreachable int
	// Example holds one unreachable (src, dst) pair when Unreachable > 0.
	ExampleSrc, ExampleDst topology.NodeID
}

// Connected reports full connectivity.
func (r ConnectivityReport) Connected() bool { return r.Unreachable == 0 }

// String renders the report.
func (r ConnectivityReport) String() string {
	if r.Connected() {
		return fmt.Sprintf("connected (%d pairs)", r.Pairs)
	}
	return fmt.Sprintf("%d/%d pairs unreachable (e.g. n%d -> n%d)",
		r.Unreachable, r.Pairs, r.ExampleSrc, r.ExampleDst)
}

// Connectivity checks, for every ordered node pair, whether a packet
// injected at the source can reach the destination by taking concrete
// channels whose class transitions the turn set permits. When minimalOnly
// is true only productive (distance-reducing) hops are considered; set it
// false for designs that require detours, such as routing through elevators
// in partially connected networks.
func Connectivity(net *topology.Network, vcs VCConfig, ts *core.TurnSet, minimalOnly bool) ConnectivityReport {
	g := BuildFromTurnSet(net, vcs, ts)
	// For each destination, walk the dependency graph backwards from the
	// channels that terminate at the destination; a source can reach the
	// destination if one of its outgoing channels is on such a path.
	// Destinations are independent, so they are processed in parallel.
	var rev csr
	g.adj.reverse(&rev, nil)
	productive := func(ch Channel, dst topology.NodeID) bool {
		if !minimalOnly {
			return true
		}
		off := net.MinimalOffsets(ch.Link.From, dst)[ch.Link.Dim]
		if off == 0 {
			return false
		}
		return (off > 0) == (ch.Link.Sign == channel.Plus)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > net.Nodes() {
		workers = net.Nodes()
	}
	reports := make([]ConnectivityReport, workers)
	hasExample := make([]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			report := &reports[w]
			reach := make([]bool, g.NumChannels())
			queue := make([]int32, 0, g.NumChannels())
			var in []int32
			for dst := topology.NodeID(w); int(dst) < net.Nodes(); dst += topology.NodeID(workers) {
				for i := range reach {
					reach[i] = false
				}
				queue = queue[:0]
				in = g.appendInto(in[:0], dst)
				for _, ci := range in {
					if productive(g.Channel(int(ci)), dst) {
						reach[ci] = true
						queue = append(queue, ci)
					}
				}
				for len(queue) > 0 {
					b := queue[0]
					queue = queue[1:]
					for _, a := range rev.row(b) {
						if reach[a] || !productive(g.Channel(int(a)), dst) {
							continue
						}
						reach[a] = true
						queue = append(queue, a)
					}
				}
				for src := topology.NodeID(0); int(src) < net.Nodes(); src++ {
					if src == dst {
						continue
					}
					report.Pairs++
					lo, hi := g.outRange(src)
					ok := slices.Contains(reach[lo:hi], true)
					if !ok {
						if !hasExample[w] {
							report.ExampleSrc, report.ExampleDst = src, dst
							hasExample[w] = true
						}
						report.Unreachable++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var out ConnectivityReport
	exampleSet := false
	for w := range reports {
		out.Pairs += reports[w].Pairs
		out.Unreachable += reports[w].Unreachable
		if !hasExample[w] {
			continue
		}
		// Keep the smallest (dst, src) example for determinism.
		better := !exampleSet ||
			reports[w].ExampleDst < out.ExampleDst ||
			(reports[w].ExampleDst == out.ExampleDst && reports[w].ExampleSrc < out.ExampleSrc)
		if better {
			out.ExampleSrc, out.ExampleDst = reports[w].ExampleSrc, reports[w].ExampleDst
			exampleSet = true
		}
	}
	return out
}

// AdaptivenessReport records how many of the minimal paths of a network a
// turn relation makes usable — the paper's measure of adaptiveness
// (Section 4: a design is fully adaptive when every minimal path is
// usable).
type AdaptivenessReport struct {
	Pairs       int
	UsableSum   int
	MinimalSum  int
	FullPairs   int // pairs where every minimal path is usable
	BrokenPairs int // pairs with zero usable minimal paths
}

// FullyAdaptive reports whether every minimal path of every pair is usable.
func (r AdaptivenessReport) FullyAdaptive() bool { return r.FullPairs == r.Pairs }

// Degree returns the fraction of minimal paths usable, in [0, 1].
func (r AdaptivenessReport) Degree() float64 {
	if r.MinimalSum == 0 {
		return 0
	}
	return float64(r.UsableSum) / float64(r.MinimalSum)
}

// String renders the report.
func (r AdaptivenessReport) String() string {
	return fmt.Sprintf("adaptiveness %.4f (%d/%d minimal paths; %d/%d pairs fully adaptive)",
		r.Degree(), r.UsableSum, r.MinimalSum, r.FullPairs, r.Pairs)
}

// RegionReport is the adaptiveness of one destination region: the orthant
// of (dst - src) signs, in the paper's compass naming (NE, SWU, ...).
type RegionReport struct {
	// Signs is the per-dimension sign of the region (+1 or -1).
	Signs []int
	AdaptivenessReport
}

// Name renders the region in compass letters (E/W, N/S, U/D; higher
// dimensions fall back to D3+/D3-).
func (r RegionReport) Name() string {
	letters := [][2]string{{"E", "W"}, {"N", "S"}, {"U", "D"}}
	out := ""
	for d, s := range r.Signs {
		var pair [2]string
		if d < len(letters) {
			pair = letters[d]
		} else {
			pair = [2]string{fmt.Sprintf("D%d+", d), fmt.Sprintf("D%d-", d)}
		}
		if s > 0 {
			out += pair[0]
		} else {
			out += pair[1]
		}
	}
	return out
}

// RegionAdaptiveness measures adaptiveness separately per destination
// orthant — the paper's region-wise view ("fully adaptive routing can be
// utilized in four regions...", Section 6.3). Only pairs with non-zero
// offsets in every dimension belong to an orthant; boundary pairs are
// excluded. Regions are returned in a fixed order (all-positive first,
// binary countdown over signs).
func RegionAdaptiveness(net *topology.Network, vcs VCConfig, ts *core.TurnSet) ([]RegionReport, error) {
	n := net.Dims()
	var regions []RegionReport
	for mask := 0; mask < 1<<uint(n); mask++ {
		signs := make([]int, n)
		for d := 0; d < n; d++ {
			if mask&(1<<uint(d)) == 0 {
				signs[d] = 1
			} else {
				signs[d] = -1
			}
		}
		regions = append(regions, RegionReport{Signs: signs})
	}
	regionOf := func(offs []int) int {
		mask := 0
		for d, off := range offs {
			if off == 0 {
				return -1
			}
			if off < 0 {
				mask |= 1 << uint(d)
			}
		}
		return mask
	}
	for src := topology.NodeID(0); int(src) < net.Nodes(); src++ {
		for dst := topology.NodeID(0); int(dst) < net.Nodes(); dst++ {
			if src == dst {
				continue
			}
			ri := regionOf(net.MinimalOffsets(src, dst))
			if ri < 0 {
				continue
			}
			usable, total, err := UsableMinimalPaths(net, vcs, ts, src, dst)
			if err != nil {
				return nil, err
			}
			r := &regions[ri]
			r.Pairs++
			r.UsableSum += usable
			r.MinimalSum += total
			if usable == total {
				r.FullPairs++
			}
			if usable == 0 {
				r.BrokenPairs++
			}
		}
	}
	return regions, nil
}

// maxTrackedClasses bounds the class-set bitmask used during path counting.
const maxTrackedClasses = 64

// UsableMinimalPaths counts the minimal direction sequences from src to dst
// that can be realised under the turn set (for some per-hop virtual-channel
// assignment), alongside the total number of minimal direction sequences.
// It returns an error if the turn set mentions more than 64 distinct
// classes (beyond any design in the paper).
func UsableMinimalPaths(net *topology.Network, vcs VCConfig, ts *core.TurnSet, src, dst topology.NodeID) (usable, total int, err error) {
	classes := ts.Classes()
	if len(classes) > maxTrackedClasses {
		return 0, 0, fmt.Errorf("cdg: %d classes exceed the %d-class analysis limit",
			len(classes), maxTrackedClasses)
	}
	classIdx := make(map[channel.Class]int, len(classes))
	for i, c := range classes {
		classIdx[c] = i
	}
	total = net.MinimalPathCount(src, dst)
	if src == dst {
		return 0, 0, nil
	}

	// matchMask returns the bitmask of turn-set classes a concrete hop
	// from node u along (d, sign) on VC vc instantiates.
	matchMask := func(u topology.NodeID, d channel.Dim, sign channel.Sign, vc int) uint64 {
		coord := net.Coord(u)
		var m uint64
		for i, cls := range classes {
			if cls.Dim != d || cls.Sign != sign || cls.VC != vc {
				continue
			}
			if cls.Par != channel.Any && !cls.Par.Matches(coord[cls.PDim]) {
				continue
			}
			m |= 1 << uint(i)
		}
		return m
	}
	// allowedFrom[b] = mask of classes a with (a -> b) permitted.
	allowedFrom := make([]uint64, len(classes))
	for bi, b := range classes {
		for ai, a := range classes {
			if ts.Allows(a, b) {
				allowedFrom[bi] |= 1 << uint(ai)
			}
		}
	}

	type key struct {
		node  topology.NodeID
		state uint64
	}
	memo := make(map[key]int)
	var count func(u topology.NodeID, state uint64) int
	count = func(u topology.NodeID, state uint64) int {
		if u == dst {
			return 1
		}
		k := key{u, state}
		if v, ok := memo[k]; ok {
			return v
		}
		offs := net.MinimalOffsets(u, dst)
		sum := 0
		for d := 0; d < net.Dims(); d++ {
			if offs[d] == 0 {
				continue
			}
			sign := channel.Plus
			if offs[d] < 0 {
				sign = channel.Minus
			}
			v, _, ok := net.Neighbor(u, channel.Dim(d), sign)
			if !ok {
				continue
			}
			// Union over VC choices of the classes reachable by this hop.
			var next uint64
			for vc := 1; vc <= vcs.VCs(channel.Dim(d)); vc++ {
				m := matchMask(u, channel.Dim(d), sign, vc)
				if state == injectionState {
					next |= m
					continue
				}
				for bi := 0; bi < len(classes); bi++ {
					if m&(1<<uint(bi)) != 0 && state&allowedFrom[bi] != 0 {
						next |= 1 << uint(bi)
					}
				}
			}
			if next == 0 {
				continue
			}
			sum += count(v, next)
		}
		memo[k] = sum
		return sum
	}
	usable = count(src, injectionState)
	return usable, total, nil
}

// injectionState marks the pre-first-hop state, at which any channel class
// may be taken (packets start at the source's injection port, which imposes
// no turn restriction).
const injectionState = ^uint64(0)

// Adaptiveness measures usable minimal paths across every ordered node pair
// of the network. Sources are processed in parallel (the turn set is only
// read), so large meshes verify at full core count.
func Adaptiveness(net *topology.Network, vcs VCConfig, ts *core.TurnSet) (AdaptivenessReport, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > net.Nodes() {
		workers = net.Nodes()
	}
	results := make([]AdaptivenessReport, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			for src := topology.NodeID(w); int(src) < net.Nodes(); src += topology.NodeID(workers) {
				for dst := topology.NodeID(0); int(dst) < net.Nodes(); dst++ {
					if src == dst {
						continue
					}
					usable, total, err := UsableMinimalPaths(net, vcs, ts, src, dst)
					if err != nil {
						errs[w] = err
						return
					}
					r.Pairs++
					r.UsableSum += usable
					r.MinimalSum += total
					if usable == total {
						r.FullPairs++
					}
					if usable == 0 {
						r.BrokenPairs++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var out AdaptivenessReport
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return out, errs[w]
		}
		out.Pairs += results[w].Pairs
		out.UsableSum += results[w].UsableSum
		out.MinimalSum += results[w].MinimalSum
		out.FullPairs += results[w].FullPairs
		out.BrokenPairs += results[w].BrokenPairs
	}
	return out, nil
}
