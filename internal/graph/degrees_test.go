package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// degreesOf returns the degree sequence a list of edges induces on n
// vertices (a loop counts 2).
func degreesOf(n int, edges []Edge) []int {
	degrees := make([]int, n)
	for _, e := range edges {
		degrees[e.U]++
		degrees[e.V]++
	}
	return degrees
}

// A graph filled to exactly its declared degrees is indistinguishable
// from the same edges added to New: same adjacency in the builder
// state, same CSR after Freeze, same Validate verdict.
func TestNewWithDegreesMatchesNew(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		edges := randomGraph(r, n, r.Intn(80)).Edges() // loops and parallels included
		want := MustFromEdges(n, edges)
		got := NewWithDegrees(degreesOf(n, edges))
		for _, e := range edges {
			if err := got.AddEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(got.Adj(v), want.Adj(v)) {
				t.Fatalf("seed %d: Adj(%d) = %v, want %v", seed, v, got.Adj(v), want.Adj(v))
			}
		}
		if gotErr, wantErr := got.Validate(), want.Validate(); gotErr != nil || wantErr != nil {
			t.Fatalf("seed %d: Validate = %v, want %v", seed, gotErr, wantErr)
		}
		if !slices.Equal(got.Halves(), want.Halves()) || !slices.Equal(got.Offsets(), want.Offsets()) {
			t.Fatalf("seed %d: CSR differs after Freeze", seed)
		}
		if !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatalf("seed %d: edge arrays differ", seed)
		}
	}
}

// The lists share one backing array, so each must be capped at its
// declared degree: an AddEdge past it has to reallocate the list, not
// write into the next vertex's halves.
func TestNewWithDegreesOverflowKeepsNeighbours(t *testing.T) {
	g := NewWithDegrees([]int{1, 2, 1})
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	before := slices.Clone(g.Adj(1))
	if err := g.AddEdge(0, 2); err != nil { // vertices 0 and 2 are already full
		t.Fatal(err)
	}
	if !slices.Equal(g.Adj(1), before) {
		t.Fatalf("Adj(1) = %v after overflowing vertex 0, want %v", g.Adj(1), before)
	}
	if want := []Half{{ID: 0, To: 1}, {ID: 2, To: 2}}; !slices.Equal(g.Adj(0), want) {
		t.Fatalf("Adj(0) = %v, want %v", g.Adj(0), want)
	}
	if want := []Half{{ID: 1, To: 1}, {ID: 2, To: 0}}; !slices.Equal(g.Adj(2), want) {
		t.Fatalf("Adj(2) = %v, want %v", g.Adj(2), want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewWithDegreesZeroDegrees(t *testing.T) {
	g := NewWithDegrees([]int{0, 1, 1, 0})
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 0 || g.Degree(3) != 0 || g.Degree(1) != 1 {
		t.Fatalf("degrees = %d %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2), g.Degree(3))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// A declared-isolated vertex still accepts edges.
	if err := g.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || g.Degree(0) != 1 || g.Degree(3) != 1 {
		t.Fatalf("after overflow: m=%d deg(0)=%d deg(3)=%d", g.M(), g.Degree(0), g.Degree(3))
	}
}

func TestNewWithDegreesPanicsOnBadInput(t *testing.T) {
	for name, degrees := range map[string][]int{
		"nil":      nil,
		"empty":    {},
		"negative": {2, -1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewWithDegrees(%v) did not panic", name, degrees)
				}
			}()
			NewWithDegrees(degrees)
		}()
	}
}
