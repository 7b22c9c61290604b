package graph_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// refGirth is the plain reference Girth is checked against: a map over
// the edge array for loops and parallel edges, and a full reset of dist
// before every root's BFS.
func refGirth(g *graph.Graph) int {
	best := -1
	seen := make(map[graph.Edge]bool, g.M())
	for _, e := range g.Edges() {
		if e.IsLoop() {
			return 1
		}
		key := e
		if key.U > key.V {
			key.U, key.V = key.V, key.U
		}
		if seen[key] {
			best = 2
		}
		seen[key] = true
	}
	if best == 2 {
		return 2
	}

	dist := make([]int, g.N())
	parentEdge := make([]int, g.N())
	queue := make([]int, 0, g.N())
	for root := 0; root < g.N(); root++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[root] = 0
		parentEdge[root] = -1
		queue = queue[:0]
		queue = append(queue, root)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if best != -1 && 2*dist[v] >= best {
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
					cyc := dist[v] + dist[h.To] + 1
					if best == -1 || cyc < best {
						best = cyc
					}
				}
			}
		}
		if best == 3 {
			return 3
		}
	}
	return best
}

// Girth must agree with the reference on random simple 3- and
// 4-regular graphs (frozen and not), where the BFS does the work, and
// on small random multigraphs, where loops must win over parallel
// edges and sparse ones stay acyclic or have long cycles.
func TestGirthMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		d := 3 + trial%2
		n := 2 * (4 + r.Intn(60))
		g, err := gen.RandomRegularSW(r, n, d)
		if err != nil {
			t.Fatal(err)
		}
		want := refGirth(g)
		if got := g.Girth(); got != want {
			t.Fatalf("%d-regular n=%d: girth %d, reference %d", d, n, got, want)
		}
		g.Freeze()
		if got := g.Girth(); got != want {
			t.Fatalf("frozen %d-regular n=%d: girth %d, reference %d", d, n, got, want)
		}
	}
	counts := map[int]int{}
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(12)
		g := graph.New(n)
		for m := r.Intn(2 * n); m > 0; m-- {
			if err := g.AddEdge(r.Intn(n), r.Intn(n)); err != nil {
				t.Fatal(err)
			}
		}
		want := refGirth(g)
		if got := g.Girth(); got != want {
			t.Fatalf("multigraph %v on %d vertices: girth %d, reference %d", g.Edges(), n, got, want)
		}
		counts[want]++
	}
	// The multigraph draws must reach every branch: acyclic, loop,
	// parallel edge and a longer cycle.
	for _, girth := range []int{-1, 1, 2, 3} {
		if counts[girth] == 0 {
			t.Errorf("no multigraph draw had girth %d (counts %v)", girth, counts)
		}
	}
}
