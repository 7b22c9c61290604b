package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func path(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func cycle(t *testing.T, n int) *Graph {
	t.Helper()
	g := path(t, n)
	if err := g.AddEdge(n-1, 0); err != nil {
		t.Fatal(err)
	}
	return g
}

func complete(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func TestNewPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

// The 32-bit Half contract: constructors reject n beyond MaxSize
// before allocating anything (m beyond MaxSize is unreachable in a
// test, but shares the same ErrTooLarge gate in AddEdge).
func TestNewRejectsOversizedGraphs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(MaxSize+1) did not panic")
		}
	}()
	if _, err := NewFromEdges(MaxSize+1, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("NewFromEdges(MaxSize+1) err = %v, want ErrTooLarge", err)
	}
	New(MaxSize + 1)
}

func TestAddEdgeRangeError(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 3); err == nil {
		t.Fatal("expected range error for endpoint 3")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("expected range error for endpoint -1")
	}
}

func TestDegreeAndHandshake(t *testing.T) {
	g := New(4)
	must(g.AddEdge(0, 1))
	must(g.AddEdge(1, 2))
	must(g.AddEdge(2, 2)) // loop: degree 2 at vertex 2
	must(g.AddEdge(0, 1)) // parallel edge
	wantDeg := []int{2, 3, 3, 0}
	for v, want := range wantDeg {
		if got := g.Degree(v); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
	if g.DegreeSum() != 2*g.M() {
		t.Errorf("handshake: degree sum %d != 2m %d", g.DegreeSum(), 2*g.M())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Fatal("Other returned wrong endpoint")
	}
	loop := Edge{U: 5, V: 5}
	if loop.Other(5) != 5 {
		t.Fatal("Other on loop should return same vertex")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	e.Other(1)
}

func TestEdgeMultiplicity(t *testing.T) {
	g := New(3)
	must(g.AddEdge(0, 1))
	must(g.AddEdge(0, 1))
	must(g.AddEdge(1, 1))
	must(g.AddEdge(1, 1))
	if got := g.EdgeMultiplicity(0, 1); got != 2 {
		t.Errorf("multiplicity(0,1) = %d, want 2", got)
	}
	if got := g.EdgeMultiplicity(1, 1); got != 2 {
		t.Errorf("loop multiplicity(1,1) = %d, want 2", got)
	}
	if got := g.EdgeMultiplicity(0, 2); got != 0 {
		t.Errorf("multiplicity(0,2) = %d, want 0", got)
	}
}

func TestIsSimple(t *testing.T) {
	g := complete(t, 4)
	if !g.IsSimple() {
		t.Error("K4 should be simple")
	}
	must(g.AddEdge(0, 1))
	if g.IsSimple() {
		t.Error("parallel edge not detected")
	}
	h := New(2)
	must(h.AddEdge(0, 0))
	if h.IsSimple() {
		t.Error("loop not detected")
	}
}

func TestIsRegularAndEvenDegree(t *testing.T) {
	c := cycle(t, 6)
	if d, ok := c.IsRegular(); !ok || d != 2 {
		t.Errorf("cycle: IsRegular = (%d,%v), want (2,true)", d, ok)
	}
	if !c.IsEvenDegree() {
		t.Error("cycle should be even degree")
	}
	p := path(t, 4)
	if _, ok := p.IsRegular(); ok {
		t.Error("path should not be regular")
	}
	if p.IsEvenDegree() {
		t.Error("path endpoints have odd degree")
	}
	k4 := complete(t, 4)
	if k4.IsEvenDegree() {
		t.Error("K4 is 3-regular, odd")
	}
}

func TestNeighborsIsCopy(t *testing.T) {
	g := cycle(t, 4)
	nb := g.Neighbors(0)
	nb[0] = 99
	if g.Neighbors(0)[0] == 99 {
		t.Fatal("Neighbors returned aliased storage")
	}
}

func TestHasEdge(t *testing.T) {
	g := cycle(t, 5)
	if !g.HasEdge(0, 1) || !g.HasEdge(4, 0) {
		t.Error("cycle edges missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("chord reported in plain cycle")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := cycle(t, 5)
	c := g.Clone()
	must(c.AddEdge(0, 2))
	if g.M() != 5 || c.M() != 6 {
		t.Fatalf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBFSAndConnectivity(t *testing.T) {
	p := path(t, 5)
	dist := p.BFSFrom(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if !p.IsConnected() {
		t.Error("path should be connected")
	}
	g := New(4)
	must(g.AddEdge(0, 1))
	must(g.AddEdge(2, 3))
	if g.IsConnected() {
		t.Error("two components reported connected")
	}
	label, count := g.Components()
	if count != 2 {
		t.Fatalf("Components count = %d, want 2", count)
	}
	if label[0] != label[1] || label[2] != label[3] || label[0] == label[2] {
		t.Errorf("component labels wrong: %v", label)
	}
}

func TestIsBipartite(t *testing.T) {
	if !cycle(t, 6).IsBipartite() {
		t.Error("even cycle should be bipartite")
	}
	if cycle(t, 5).IsBipartite() {
		t.Error("odd cycle should not be bipartite")
	}
	if !path(t, 7).IsBipartite() {
		t.Error("path should be bipartite")
	}
	g := New(2)
	must(g.AddEdge(0, 0))
	if g.IsBipartite() {
		t.Error("loop graph should not be bipartite")
	}
}

func TestDiameterAndEccentricity(t *testing.T) {
	p := path(t, 6)
	if d := p.Diameter(); d != 5 {
		t.Errorf("path diameter = %d, want 5", d)
	}
	if e := p.Eccentricity(2); e != 3 {
		t.Errorf("eccentricity(2) = %d, want 3", e)
	}
	c := cycle(t, 8)
	if d := c.Diameter(); d != 4 {
		t.Errorf("C8 diameter = %d, want 4", d)
	}
	g := New(3)
	must(g.AddEdge(0, 1))
	if g.Diameter() != -1 {
		t.Error("disconnected graph should have diameter -1")
	}
}

func TestGirth(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path (acyclic)", path(t, 5), -1},
		{"C3", cycle(t, 3), 3},
		{"C5", cycle(t, 5), 5},
		{"C12", cycle(t, 12), 12},
		{"K4", complete(t, 4), 3},
		{"K5", complete(t, 5), 3},
	}
	for _, tc := range cases {
		if got := tc.g.Girth(); got != tc.want {
			t.Errorf("%s: girth = %d, want %d", tc.name, got, tc.want)
		}
	}
	loop := New(1)
	must(loop.AddEdge(0, 0))
	if loop.Girth() != 1 {
		t.Error("loop girth should be 1")
	}
	par := New(2)
	must(par.AddEdge(0, 1))
	must(par.AddEdge(0, 1))
	if par.Girth() != 2 {
		t.Error("parallel-edge girth should be 2")
	}
	// A loop answers 1 even when a parallel edge comes first.
	both := MustFromEdges(4, []Edge{{0, 1}, {0, 1}, {2, 3}, {3, 3}})
	if both.Girth() != 1 {
		t.Error("a loop should beat an earlier parallel edge")
	}
	// Petersen graph: girth 5.
	petersen := MustFromEdges(10, []Edge{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, // outer C5
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}, // inner pentagram
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}, // spokes
	})
	if got := petersen.Girth(); got != 5 {
		t.Errorf("Petersen girth = %d, want 5", got)
	}
	// Two-cycle union: girth is the smaller cycle.
	g := cycle(t, 9)
	must(g.AddEdge(0, 4)) // creates a 5-cycle and a 6-cycle
	if got := g.Girth(); got != 5 {
		t.Errorf("chorded C9 girth = %d, want 5", got)
	}
}

func TestHasCycle(t *testing.T) {
	if path(t, 4).HasCycle() {
		t.Error("path has no cycle")
	}
	if !cycle(t, 4).HasCycle() {
		t.Error("cycle not detected")
	}
	forest := New(5)
	must(forest.AddEdge(0, 1))
	must(forest.AddEdge(2, 3))
	if forest.HasCycle() {
		t.Error("forest has no cycle")
	}
	must(forest.AddEdge(3, 4))
	must(forest.AddEdge(4, 2))
	if !forest.HasCycle() {
		t.Error("triangle in second component not detected")
	}
}

func TestContractRetainsLoopsAndMultiplicity(t *testing.T) {
	// C6; contract {0,1,2}: edge {0,1},{1,2} become loops at γ,
	// edges {2,3},{5,0} become γ-edges, {3,4},{4,5} survive.
	g := cycle(t, 6)
	gamma, gid, oldToNew := g.Contract([]int{0, 1, 2})
	if gamma.N() != 4 {
		t.Fatalf("contracted N = %d, want 4", gamma.N())
	}
	if gamma.M() != g.M() {
		t.Fatalf("contraction must preserve edge count: %d != %d", gamma.M(), g.M())
	}
	if gamma.Degree(gid) != g.DegreeOf([]int{0, 1, 2}) {
		t.Errorf("d(γ) = %d, want d(S) = %d", gamma.Degree(gid), g.DegreeOf([]int{0, 1, 2}))
	}
	if gamma.EdgeMultiplicity(gid, gid) != 2 {
		t.Errorf("loops at γ = %d, want 2", gamma.EdgeMultiplicity(gid, gid))
	}
	for _, v := range []int{0, 1, 2} {
		if oldToNew[v] != gid {
			t.Errorf("oldToNew[%d] = %d, want γ=%d", v, oldToNew[v], gid)
		}
	}
	if err := gamma.Validate(); err != nil {
		t.Error(err)
	}
}

func TestContractSingletonIsRelabel(t *testing.T) {
	g := complete(t, 4)
	gamma, _, _ := g.Contract([]int{2})
	if gamma.N() != g.N() || gamma.M() != g.M() {
		t.Fatal("contracting a singleton should preserve n and m")
	}
	if !gamma.IsSimple() {
		t.Error("contracting a singleton of a simple graph should stay simple")
	}
}

func TestContractDuplicatesInS(t *testing.T) {
	g := cycle(t, 5)
	gamma, gid, _ := g.Contract([]int{1, 1, 2})
	if gamma.N() != 4 {
		t.Fatalf("N = %d, want 4 (duplicates ignored)", gamma.N())
	}
	if gamma.Degree(gid) != 4 {
		t.Errorf("d(γ) = %d, want 4", gamma.Degree(gid))
	}
}

func TestSubdivideEdges(t *testing.T) {
	g := cycle(t, 4)
	h, mids := g.SubdivideEdges([]int{0, 2})
	if h.N() != 6 {
		t.Fatalf("N = %d, want 6", h.N())
	}
	if h.M() != 6 {
		t.Fatalf("M = %d, want 6", h.M())
	}
	if len(mids) != 2 {
		t.Fatalf("inserted = %v, want 2 vertices", mids)
	}
	for _, mid := range mids {
		if h.Degree(mid) != 2 {
			t.Errorf("inserted vertex %d degree = %d, want 2", mid, h.Degree(mid))
		}
	}
	if !h.IsConnected() {
		t.Error("subdivision broke connectivity")
	}
	// Girth grows by number of subdivided cycle edges.
	if got := h.Girth(); got != 6 {
		t.Errorf("subdivided C4 girth = %d, want 6", got)
	}
	// Degree sum of the inserted set matches Lemma 16: d(S) = 2·|S|.
	if d := h.DegreeOf(mids); d != 2*len(mids) {
		t.Errorf("d(S) = %d, want %d", d, 2*len(mids))
	}
}

func TestSubdivideDuplicateIDs(t *testing.T) {
	g := cycle(t, 3)
	h, mids := g.SubdivideEdges([]int{1, 1})
	if len(mids) != 1 {
		t.Fatalf("duplicate edge IDs should subdivide once, got %v", mids)
	}
	if h.N() != 4 || h.M() != 4 {
		t.Fatalf("got n=%d m=%d, want 4,4", h.N(), h.M())
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := complete(t, 5)
	sub, oldToNew := g.InducedSubgraph([]int{0, 1, 2})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("K5[0,1,2] = (n=%d,m=%d), want triangle", sub.N(), sub.M())
	}
	if oldToNew[3] != -1 || oldToNew[4] != -1 {
		t.Error("excluded vertices should map to -1")
	}
}

func TestEdgeInducedSubgraph(t *testing.T) {
	g := cycle(t, 6)
	sub, oldToNew := g.EdgeInducedSubgraph([]int{0, 1})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("edge-induced = (n=%d,m=%d), want (3,2)", sub.N(), sub.M())
	}
	mapped := 0
	for _, nv := range oldToNew {
		if nv != -1 {
			mapped++
		}
	}
	if mapped != 3 {
		t.Errorf("%d vertices mapped, want 3", mapped)
	}
	// Empty edge set.
	empty, _ := g.EdgeInducedSubgraph(nil)
	if empty.N() != 1 || empty.M() != 0 {
		t.Error("empty edge-induced subgraph should be a single isolated vertex")
	}
}

func TestInducedEdgeCountAndBoundary(t *testing.T) {
	g := complete(t, 5)
	if got := g.InducedEdgeCount([]int{0, 1, 2}); got != 3 {
		t.Errorf("induced edges = %d, want 3", got)
	}
	if got := g.EdgeBoundary([]int{0, 1}); got != 6 {
		t.Errorf("boundary = %d, want 6", got)
	}
	if got := g.DegreeOf([]int{0, 1}); got != 8 {
		t.Errorf("d(X) = %d, want 8", got)
	}
	// Conductance identity: d(X) = 2·induced + boundary.
	x := []int{0, 1, 2}
	if g.DegreeOf(x) != 2*g.InducedEdgeCount(x)+g.EdgeBoundary(x) {
		t.Error("degree/boundary identity violated")
	}
}

func TestBallAround(t *testing.T) {
	p := path(t, 9)
	ball, leaves := p.BallAround(4, 2)
	if len(ball) != 5 {
		t.Errorf("ball size = %d, want 5", len(ball))
	}
	if len(leaves) != 2 {
		t.Errorf("leaves = %v, want 2 vertices", leaves)
	}
	for _, l := range leaves {
		if l != 2 && l != 6 {
			t.Errorf("unexpected leaf %d", l)
		}
	}
	// Radius 0: ball is just the root.
	ball, leaves = p.BallAround(4, 0)
	if len(ball) != 1 || len(leaves) != 1 || ball[0] != 4 {
		t.Error("radius-0 ball should be the root alone")
	}
}

func randomGraph(r *rand.Rand, n, m int) *Graph {
	g := New(n)
	for i := 0; i < m; i++ {
		must(g.AddEdge(r.Intn(n), r.Intn(n)))
	}
	return g
}

func TestPropertyHandshakeOnRandomMultigraphs(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%50) + 1
		m := int(mRaw % 100)
		g := randomGraph(rand.New(rand.NewSource(seed)), n, m)
		return g.DegreeSum() == 2*g.M() && g.Validate() == nil
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyContractPreservesEdges(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw, mRaw, sRaw uint8) bool {
		n := int(nRaw%40) + 2
		m := int(mRaw % 80)
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, n, m)
		sSize := int(sRaw%uint8(n-1)) + 1
		s := r.Perm(n)[:sSize]
		gamma, gid, _ := g.Contract(s)
		return gamma.M() == g.M() &&
			gamma.Degree(gid) == g.DegreeOf(s) &&
			gamma.Validate() == nil
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBFSDistanceTriangleInequality(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30) + 3
		g := randomGraph(r, n, 3*n)
		a, b := r.Intn(n), r.Intn(n)
		da := g.BFSFrom(a)
		db := g.BFSFrom(b)
		for v := 0; v < n; v++ {
			if da[v] == -1 || db[v] == -1 || da[b] == -1 {
				continue
			}
			if da[v] > da[b]+db[v] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropertySubdivideGrowsGirth(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(10) + 3
		g := New(n)
		for i := 0; i < n; i++ {
			must(g.AddEdge(i, (i+1)%n))
		}
		all := make([]int, g.M())
		for i := range all {
			all[i] = i
		}
		h, _ := g.SubdivideEdges(all)
		return h.Girth() == 2*n
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}
