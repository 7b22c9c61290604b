package graph

import "testing"

func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	// 4 vertices: parallel edges 0-1, a loop at 2, a path 1-2-3.
	g := MustFromEdges(4, []Edge{{0, 1}, {0, 1}, {2, 2}, {1, 2}, {2, 3}})
	return g
}

// Freeze must preserve every adjacency list exactly, in order.
func TestFreezePreservesAdjacency(t *testing.T) {
	g := buildTestGraph(t)
	type snap struct {
		deg int
		adj []Half
	}
	before := make([]snap, g.N())
	for v := 0; v < g.N(); v++ {
		before[v] = snap{g.Degree(v), append([]Half(nil), g.Adj(v)...)}
	}
	g.Freeze()
	if !g.Frozen() {
		t.Fatal("graph not frozen after Freeze")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("frozen graph invalid: %v", err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != before[v].deg {
			t.Errorf("vertex %d: degree %d after freeze, want %d", v, g.Degree(v), before[v].deg)
		}
		got := g.Adj(v)
		if len(got) != len(before[v].adj) {
			t.Fatalf("vertex %d: adjacency length changed", v)
		}
		for i, h := range got {
			if h != before[v].adj[i] {
				t.Errorf("vertex %d half %d: %+v after freeze, want %+v", v, i, h, before[v].adj[i])
			}
		}
	}
}

// The CSR views must agree with Adj and stay consistent with offsets.
func TestHalvesOffsetsViews(t *testing.T) {
	g := buildTestGraph(t)
	halves, off := g.Halves(), g.Offsets()
	if len(off) != g.N()+1 {
		t.Fatalf("offsets length %d, want %d", len(off), g.N()+1)
	}
	if int(off[g.N()]) != len(halves) || len(halves) != 2*g.M() {
		t.Fatalf("CSR sizes inconsistent: %d halves, last offset %d, m=%d", len(halves), off[g.N()], g.M())
	}
	for v := 0; v < g.N(); v++ {
		block := halves[off[v]:off[v+1]]
		adj := g.Adj(v)
		if len(block) != len(adj) {
			t.Fatalf("vertex %d: CSR block length %d vs Adj %d", v, len(block), len(adj))
		}
		for i := range block {
			if block[i] != adj[i] {
				t.Errorf("vertex %d: CSR block and Adj diverge at %d", v, i)
			}
		}
	}
}

// Freezing must be idempotent, AddEdge must thaw a frozen graph
// transparently, and refreezing must give the exact CSR arrays of a
// graph that received every edge before its first Freeze.
func TestFreezeThawCycle(t *testing.T) {
	g := buildTestGraph(t)
	g.Freeze()
	g.Freeze() // idempotent
	if err := g.AddEdge(3, 0); err != nil {
		t.Fatal(err)
	}
	if g.Frozen() {
		t.Fatal("graph still frozen after AddEdge")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("thawed graph invalid: %v", err)
	}
	if g.M() != 6 || g.Degree(3) != 2 {
		t.Fatalf("mutation lost: m=%d deg(3)=%d", g.M(), g.Degree(3))
	}
	// Refreeze and confirm the new edge landed in the CSR arrays.
	g.Freeze()
	found := false
	for _, h := range g.Adj(3) {
		if h.ID == 5 && h.To == 0 {
			found = true
		}
	}
	if !found {
		t.Error("new edge missing from refrozen adjacency")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("refrozen graph invalid: %v", err)
	}

	// Freeze-mutate-freeze gives byte-identical CSR arrays to building
	// everything before the first freeze.
	want := MustFromEdges(4, []Edge{{0, 1}, {0, 1}, {2, 2}, {1, 2}, {2, 3}, {3, 0}})
	want.Freeze()
	wh, wo := want.Halves(), want.Offsets()
	gh, gOff := g.Halves(), g.Offsets()
	if len(wh) != len(gh) || len(wo) != len(gOff) {
		t.Fatalf("refrozen CSR sizes differ: %d/%d halves, %d/%d offsets", len(gh), len(wh), len(gOff), len(wo))
	}
	for i := range wh {
		if wh[i] != gh[i] {
			t.Fatalf("refrozen CSR halves diverge at %d: %+v vs %+v", i, gh[i], wh[i])
		}
	}
	for i := range wo {
		if wo[i] != gOff[i] {
			t.Fatalf("refrozen CSR offsets diverge at %d", i)
		}
	}
}

// Clone must deep-copy in both storage states.
func TestClonePreservesState(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		g := buildTestGraph(t)
		if frozen {
			g.Freeze()
		}
		c := g.Clone()
		if c.Frozen() != frozen {
			t.Errorf("clone frozen=%v, want %v", c.Frozen(), frozen)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("clone invalid: %v", err)
		}
		// Mutating the clone must not affect the original.
		if err := c.AddEdge(0, 3); err != nil {
			t.Fatal(err)
		}
		if g.M() != 5 {
			t.Errorf("original mutated through clone: m=%d", g.M())
		}
		if g.Frozen() != frozen {
			t.Errorf("original thawed through clone")
		}
	}
}

// Isolated vertices must yield empty, well-formed CSR blocks.
func TestFreezeIsolatedVertices(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(1, 1); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := g.Degree(0); d != 0 {
		t.Errorf("deg(0) = %d, want 0", d)
	}
	if adj := g.Adj(2); len(adj) != 0 {
		t.Errorf("Adj(2) = %v, want empty", adj)
	}
	if d := g.Degree(1); d != 2 {
		t.Errorf("loop degree = %d, want 2", d)
	}
}
