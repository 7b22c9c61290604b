package graph

// Girth returns the length of a shortest cycle, or -1 if the graph is
// acyclic. Loops give girth 1 and parallel edges girth 2, consistent
// with multigraph convention.
//
// For simple graphs the computation is the standard BFS-per-vertex
// method: from each root, a non-tree edge at BFS depths (d(u), d(v))
// witnesses a cycle through the root's BFS tree of length
// d(u)+d(v)+1. Running it over all roots yields the exact girth in
// O(n·m). Girth is used by Theorem 3's edge-cover bound and by the
// high-girth experiment graphs. A root's BFS costs only what it
// visits: it stops once no shorter cycle can pass through the root.
func (g *Graph) Girth() int {
	// Multigraph short-circuit: loops and parallel edges. While v's list
	// is scanned, dist[w] == v+1 marks w as already seen from v. Every
	// list is scanned before parallel edges answer 2, so a loop anywhere
	// still answers 1.
	dist := make([]int, g.N())
	parallel := false
	for v := range dist {
		for _, h := range g.Adj(v) {
			w := int(h.To)
			if w == v {
				return 1
			}
			if dist[w] == v+1 {
				parallel = true
			}
			dist[w] = v + 1
		}
	}
	if parallel {
		return 2
	}

	best := -1
	for i := range dist {
		dist[i] = -1
	}
	parentEdge := make([]int, g.N())
	queue := make([]int, 0, g.N())
	for root := 0; root < g.N(); root++ {
		dist[root] = 0
		parentEdge[root] = -1
		queue = append(queue[:0], root)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if best != -1 && 2*dist[v] >= best {
				// No shorter cycle through root can still be found.
				break
			}
			for _, h := range g.Adj(v) {
				if int(h.ID) == parentEdge[v] {
					continue
				}
				if dist[h.To] == -1 {
					dist[h.To] = dist[v] + 1
					parentEdge[h.To] = int(h.ID)
					queue = append(queue, int(h.To))
				} else {
					// Non-tree edge: cycle of length dist[v]+dist[to]+1.
					cyc := dist[v] + dist[h.To] + 1
					if best == -1 || cyc < best {
						best = cyc
					}
				}
			}
		}
		if best == 3 {
			return 3 // cannot do better in a simple graph
		}
		// Every vertex this BFS reached was queued: resetting those
		// keeps each root's cost to what it visited, not n.
		for _, v := range queue {
			dist[v] = -1
		}
	}
	return best
}

// HasCycle reports whether the graph contains any cycle (equivalently,
// m exceeds n minus the number of components).
func (g *Graph) HasCycle() bool {
	_, comps := g.Components()
	return g.M() > g.N()-comps
}
