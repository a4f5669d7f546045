package topology

// Connected reports whether all internal routers form a single connected
// component when only internal-internal links are considered.
func (g *Graph) Connected() bool {
	internal := g.Internal()
	if len(internal) == 0 {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{internal[0]}
	seen[internal[0]] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range g.Neighbors(n) {
			if g.nodes[m].External || seen[m] {
				continue
			}
			seen[m] = true
			count++
			stack = append(stack, m)
		}
	}
	return count == len(internal)
}
