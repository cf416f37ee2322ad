// Package deadlock searches for potential deadlock configurations of a
// routing algorithm on a concrete network — a strictly sharper analysis
// than cycle detection, and the mechanical bridge between the two theories
// the paper contrasts in Section 2.
//
// A (single-packet-per-channel) deadlock configuration is a non-empty set
// S of occupied channels, with a destination assigned to each, such that
// every occupant is blocked: it has not arrived, it has somewhere it is
// allowed to go, and every channel it is allowed to request belongs to S.
// This is the classic circular-wait ("knot") condition:
//
//   - an acyclic dependency graph admits no such S (take the occupant
//     whose channel is last in topological order: its requests point
//     forward, out of S) — EbDa designs pass trivially;
//   - a cyclic graph MAY still admit none, when every cycle has an escape
//     request leading out of any candidate S — exactly Duato's theorem,
//     and our Duato baseline demonstrates it: cycles among the adaptive
//     channels, no deadlock configuration, because the escape VC is always
//     requestable;
//   - the unrestricted baseline yields a concrete configuration that
//     matches what the simulator's watchdog traps dynamically.
//
// The search computes a greatest fixed point: start from all channels
// occupied and repeatedly evict channels whose occupant could not be
// blocked under any destination, until the set stabilises. Destinations
// considered for an occupant are restricted to those for which the channel
// is actually reachable from injection (the same forward closure the
// routing-relation verification uses), so impossible packet states cannot
// fabricate a deadlock.
package deadlock

import (
	"fmt"
	"strings"

	"ebda/internal/cdg"
	"ebda/internal/routing"
	"ebda/internal/topology"
)

// Occupant is one channel of a deadlock configuration with its witness
// destination.
type Occupant struct {
	Channel cdg.Channel
	Dst     topology.NodeID
	// Requests are the channels the occupant is allowed to take, all of
	// which are inside the configuration.
	Requests []cdg.Channel
}

// Configuration is a potential deadlock: every occupant's full request set
// lies inside the configuration.
type Configuration struct {
	Occupants []Occupant
}

// Empty reports whether no deadlock configuration was found.
func (c *Configuration) Empty() bool { return c == nil || len(c.Occupants) == 0 }

// String renders the configuration.
func (c *Configuration) String() string {
	if c.Empty() {
		return "no deadlock configuration (deadlock-free)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "deadlock configuration with %d occupied channels:\n", len(c.Occupants))
	for _, o := range c.Occupants {
		reqs := make([]string, len(o.Requests))
		for i, r := range o.Requests {
			reqs[i] = r.String()
		}
		fmt.Fprintf(&b, "  %s (dst n%d) waits on {%s}\n", o.Channel, o.Dst, strings.Join(reqs, ", "))
	}
	return strings.TrimRight(b.String(), "\n")
}

// Find searches for a potential deadlock configuration of the algorithm on
// the network. A nil/empty result means none exists under the
// one-packet-per-virtual-channel abstraction.
func Find(net *topology.Network, vcs cdg.VCConfig, alg routing.Algorithm) *Configuration {
	g := cdg.NewGraph(net, vcs)
	n := g.NumChannels()
	dsts := net.Nodes()

	// usable[d][c]: channel c can carry a packet destined to d (forward
	// closure from injection). succ[d][c]: the channels such a packet may
	// request from c's head.
	usable := make([][]bool, dsts)
	succ := make([][][]int32, dsts)
	for d := 0; d < dsts; d++ {
		usable[d] = make([]bool, n)
		succ[d] = make([][]int32, n)
		dst := topology.NodeID(d)
		// Seed with injection candidates from every source.
		var queue []int32
		for src := topology.NodeID(0); int(src) < net.Nodes(); src++ {
			if src == dst {
				continue
			}
			for _, cand := range alg.Candidates(net, src, nil, dst) {
				if ch, ok := g.FindChannel(src, cand.Dim, cand.Sign, cand.VC); ok {
					if !usable[d][ch.Index] {
						usable[d][ch.Index] = true
						queue = append(queue, int32(ch.Index))
					}
				}
			}
		}
		for len(queue) > 0 {
			ci := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ch := g.Channel(int(ci))
			at := ch.Link.To
			if at == dst {
				continue
			}
			cls := ch.Class()
			for _, cand := range alg.Candidates(net, at, &cls, dst) {
				next, ok := g.FindChannel(at, cand.Dim, cand.Sign, cand.VC)
				if !ok {
					continue
				}
				succ[d][ci] = append(succ[d][ci], int32(next.Index))
				if !usable[d][next.Index] {
					usable[d][next.Index] = true
					queue = append(queue, int32(next.Index))
				}
			}
		}
	}

	// Greatest fixed point: evict channels that cannot be blocked.
	inSet := make([]bool, n)
	for i := range inSet {
		inSet[i] = true
	}
	witness := make([]int, n) // witness destination per channel
	for changed := true; changed; {
		changed = false
		for c := 0; c < n; c++ {
			if !inSet[c] {
				continue
			}
			head := g.Channel(int(c)).Link.To
			blocked := false
			for d := 0; d < dsts && !blocked; d++ {
				if !usable[d][c] || topology.NodeID(d) == head {
					continue
				}
				reqs := succ[d][c]
				if len(reqs) == 0 {
					continue
				}
				all := true
				for _, r := range reqs {
					if !inSet[r] {
						all = false
						break
					}
				}
				if all {
					blocked = true
					witness[c] = d
				}
			}
			if !blocked {
				inSet[c] = false
				changed = true
			}
		}
	}

	cfg := &Configuration{}
	for c := 0; c < n; c++ {
		if !inSet[c] {
			continue
		}
		o := Occupant{Channel: g.Channel(int(c)), Dst: topology.NodeID(witness[c])}
		for _, r := range succ[witness[c]][c] {
			o.Requests = append(o.Requests, g.Channel(int(r)))
		}
		cfg.Occupants = append(cfg.Occupants, o)
	}
	if len(cfg.Occupants) == 0 {
		return nil
	}
	return cfg
}
