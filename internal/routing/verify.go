package routing

import (
	"fmt"

	"ebda/internal/cdg"
	"ebda/internal/channel"
	"ebda/internal/topology"
)

// Relation adapts an Algorithm to the channel-dependency extraction of
// internal/cdg: for every (position, input channel, destination) the
// algorithm's candidate outputs become dependency edges.
func Relation(alg Algorithm) cdg.RoutingRelation {
	return func(g *cdg.Graph, at topology.NodeID, in *cdg.Channel, dst topology.NodeID) []int {
		var inCls *channel.Class
		if in != nil {
			c := in.Class()
			inCls = &c
		}
		var out []int
		for _, cand := range alg.Candidates(g.Net(), at, inCls, dst) {
			if ch, ok := g.FindChannel(at, cand.Dim, cand.Sign, cand.VC); ok {
				out = append(out, ch.Index)
			}
		}
		return out
	}
}

// Verify builds the full routing relation of an algorithm on a network
// (over all destinations) and checks the induced channel dependency graph
// for cycles — the classic Dally verification. The build runs in a
// cdg.Workspace from cdg.DefaultPool, whose buffers are refilled in place
// for whatever network shape comes next.
func Verify(net *topology.Network, vcs cdg.VCConfig, alg Algorithm) cdg.Report {
	ws := cdg.DefaultPool.Get(net, vcs)
	rep := ws.VerifyRelation(Relation(alg), net.String()+" / "+alg.Name())
	cdg.DefaultPool.Put(ws)
	return rep
}

// DeliveryReport summarises a walk-based delivery check.
type DeliveryReport struct {
	Pairs    int
	Failed   int
	MaxHops  int
	Examples []string
}

// OK reports whether every pair delivered.
func (r DeliveryReport) OK() bool { return r.Failed == 0 }

// String renders the report.
func (r DeliveryReport) String() string {
	if r.OK() {
		return fmt.Sprintf("delivered all %d pairs (max %d hops)", r.Pairs, r.MaxHops)
	}
	return fmt.Sprintf("%d/%d pairs failed: %v", r.Failed, r.Pairs, r.Examples)
}

// CheckDelivery walks one route per (src, dst) pair, always taking the
// algorithm's first candidate, and verifies the walk terminates at the
// destination within hopLimit hops. For adaptive algorithms this exercises
// one representative path; it catches broken candidate functions (empty
// candidates, livelock loops, steering errors).
func CheckDelivery(net *topology.Network, alg Algorithm, hopLimit int) DeliveryReport {
	rep := DeliveryReport{}
	for src := topology.NodeID(0); int(src) < net.Nodes(); src++ {
		for dst := topology.NodeID(0); int(dst) < net.Nodes(); dst++ {
			if src == dst {
				continue
			}
			rep.Pairs++
			hops, ok := walk(net, alg, src, dst, hopLimit)
			if !ok {
				rep.Failed++
				if len(rep.Examples) < 5 {
					rep.Examples = append(rep.Examples,
						fmt.Sprintf("n%d->n%d", src, dst))
				}
				continue
			}
			if hops > rep.MaxHops {
				rep.MaxHops = hops
			}
		}
	}
	return rep
}

func walk(net *topology.Network, alg Algorithm, src, dst topology.NodeID, hopLimit int) (int, bool) {
	cur := src
	var in *channel.Class
	for hops := 0; hops <= hopLimit; hops++ {
		if cur == dst {
			return hops, true
		}
		cands := alg.Candidates(net, cur, in, dst)
		if len(cands) == 0 {
			return hops, false
		}
		c := cands[0]
		next, _, ok := net.Neighbor(cur, c.Dim, c.Sign)
		if !ok {
			return hops, false
		}
		cur = next
		cls := channel.NewVC(c.Dim, c.Sign, c.VC)
		in = &cls
	}
	return hopLimit, false
}
