package cdg

import (
	"context"
	"fmt"
	"strings"
)

// TopoOrder returns a topological ordering of the dependency graph — the
// explicit witness of deadlock freedom (a channel numbering under which
// every dependency goes from a lower to a higher number, exactly the
// ordering argument behind Dally's condition and the paper's ascending
// disciplines). The order is the Kahn peel's: round by round, each round
// in the order the previous one released its channels. It returns an
// error when the graph is cyclic.
func (g *Graph) TopoOrder() ([]Channel, error) {
	var st acyclicState
	if peeled, _ := kahnPeel(context.Background(), &g.adj, &st); peeled != g.NumChannels() {
		return nil, fmt.Errorf("cdg: graph is cyclic (%d of %d channels ordered)",
			peeled, g.NumChannels())
	}
	return g.channelsOf(st.order), nil
}

// Certificate is a machine-checkable proof of deadlock freedom: a
// permutation of the graph's channel indices such that every dependency
// edge goes forward. Anyone holding the graph can re-validate the
// certificate with CheckCertificate without trusting its producer.
type Certificate struct {
	// Order lists every channel index exactly once, in ascending
	// dependency order.
	Order []int
}

// Certificate produces a deadlock-freedom certificate, or an error when
// the graph is cyclic.
func (g *Graph) Certificate() (*Certificate, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	c := &Certificate{Order: make([]int, len(order))}
	for i, ch := range order {
		c.Order[i] = ch.Index
	}
	return c, nil
}

// CheckCertificate independently validates a certificate against the
// graph: the order must be a permutation of all channels and every
// dependency edge must go from an earlier to a later position.
func (g *Graph) CheckCertificate(c *Certificate) error {
	if c == nil {
		return fmt.Errorf("cdg: no certificate")
	}
	if len(c.Order) != g.NumChannels() {
		return fmt.Errorf("cdg: certificate covers %d of %d channels",
			len(c.Order), g.NumChannels())
	}
	pos := make([]int, g.NumChannels())
	for i := range pos {
		pos[i] = -1
	}
	for i, idx := range c.Order {
		if idx < 0 || idx >= g.NumChannels() {
			return fmt.Errorf("cdg: certificate index %d out of range", idx)
		}
		if pos[idx] != -1 {
			return fmt.Errorf("cdg: certificate repeats channel %d", idx)
		}
		pos[idx] = i
	}
	for a := 0; a < g.NumChannels(); a++ {
		for _, b := range g.Succs(a) {
			if pos[a] >= pos[b] {
				return fmt.Errorf("cdg: dependency %s => %s violates the certificate order",
					g.Channel(a), g.Channel(int(b)))
			}
		}
	}
	return nil
}

// DOT renders the dependency graph in Graphviz format. Channels are
// grouped by their class for readability; when the graph contains cycles
// the channels of the deadlock-capable strongly connected components are
// highlighted.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontsize=9];\n")
	inSCC := make(map[int]bool)
	for _, comp := range g.SCCs() {
		for _, v := range comp {
			inSCC[v] = true
		}
	}
	for i := 0; i < g.NumChannels(); i++ {
		ch := g.Channel(i)
		attrs := ""
		if inSCC[i] {
			attrs = ", style=filled, fillcolor=\"#ffcccc\""
		}
		fmt.Fprintf(&b, "  c%d [label=\"n%d→n%d\\n%s\"%s];\n",
			i, ch.Link.From, ch.Link.To, ch.Class(), attrs)
	}
	for i := 0; i < g.NumChannels(); i++ {
		for _, s := range g.Succs(i) {
			attrs := ""
			if inSCC[i] && inSCC[int(s)] {
				attrs = " [color=red]"
			}
			fmt.Fprintf(&b, "  c%d -> c%d%s;\n", i, s, attrs)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
