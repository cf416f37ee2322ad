package cdg

// referenceFindCycle is the reference the Kahn peel is checked against:
// an iterative three-colour DFS over the whole graph, independent of the
// peel. It returns one dependency cycle as a channel sequence (the last
// element depends on the first), or nil if the graph is acyclic.
func referenceFindCycle(g *Graph) []Channel {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, g.NumChannels())
	parent := make([]int32, g.NumChannels())
	for i := range parent {
		parent[i] = -1
	}
	type frame struct {
		node int32
		next int
	}
	for start := range color {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: int32(start)}}
		color[start] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if row := g.Succs(int(f.node)); f.next < len(row) {
				succ := row[f.next]
				f.next++
				switch color[succ] {
				case white:
					color[succ] = grey
					parent[succ] = f.node
					stack = append(stack, frame{node: succ})
				case grey:
					// Found a cycle: walk parents from f.node back
					// to succ.
					var cyc []Channel
					for v := f.node; ; v = parent[v] {
						cyc = append(cyc, g.Channel(int(v)))
						if v == succ {
							break
						}
					}
					// Reverse into dependency order.
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return cyc
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}
