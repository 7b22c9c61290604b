package graph

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by graph constructors and mutators.
var (
	ErrVertexRange = errors.New("graph: vertex out of range")
	ErrNoVertices  = errors.New("graph: graph must have at least one vertex")
	ErrTooLarge    = errors.New("graph: size exceeds the 32-bit half-edge layout (n ≤ MaxSize, m ≤ MaxEdges)")
)

// MaxSize bounds the vertex count and MaxEdges the edge count: Half
// packs the edge ID and far endpoint into uint32 fields and the CSR
// offset table is int32, so n may not exceed 2^31−1 and the 2m
// half-edges must fit the same range (m ≤ (2^31−1)/2). New,
// NewFromEdges and AddEdge enforce the bounds at construction time, so
// a successfully built graph can always Freeze.
const (
	MaxSize  = math.MaxInt32
	MaxEdges = MaxSize / 2
)

// Edge is an undirected edge between vertices U and V. A loop has U == V.
type Edge struct {
	U, V int
}

// Other returns the endpoint of e that is not x. For a loop it returns x.
// It panics if x is not an endpoint of e.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", x, e))
	}
}

// IsLoop reports whether e is a self-loop.
func (e Edge) IsLoop() bool { return e.U == e.V }

// Half is a half-edge (dart): the occurrence of edge ID at a vertex,
// pointing at the opposite endpoint To. A loop at v contributes two
// halves at v, both with To == v.
//
// The fields are packed uint32s — 8 bytes per half instead of 16 —
// because the CSR adjacency and the walk engine's pending arenas are
// the dominant hot-state memory traffic at experiment scale. The
// constructors guarantee n ≤ MaxSize and m ≤ MaxEdges, so converting a
// field to int is always lossless; callers must not assume the fields
// are machine-word sized.
type Half struct {
	ID uint32 // edge index into the graph's edge array
	To uint32 // opposite endpoint
}

// Graph is an undirected multigraph with loops. The zero value is an
// empty graph with no vertices; use New, NewWithDegrees or NewFromEdges
// to construct a usable instance.
//
// A Graph has two storage states. While mutable, adjacency lives in a
// per-vertex builder ([][]Half) so AddEdge is O(1) amortised. Freeze
// converts it to a compressed-sparse-row (CSR) layout — one flat
// []Half array plus a []int32 offset table — which packs every
// adjacency list contiguously for cache locality and lets hot loops
// index neighbourhoods without pointer chasing. Adj works identically
// in both states (on a frozen graph it returns a view into the flat
// array); mutating a frozen graph transparently thaws it back to the
// builder representation.
//
// Concurrency: a frozen Graph is safe for concurrent reads, but the
// freeze/thaw transitions are unsynchronized writes — and note that
// walk constructors and the Halves/Offsets accessors freeze lazily.
// Call Freeze once before sharing a graph across goroutines (the sim
// harness builds one graph per trial, so it never shares).
type Graph struct {
	edges []Edge
	n     int

	// Builder adjacency; valid while !frozen, nil once frozen.
	adj [][]Half

	// CSR adjacency; valid while frozen. The halves of vertex v occupy
	// halves[off[v]:off[v+1]], in the same order the builder held them
	// (edge-insertion order per vertex).
	halves []Half
	off    []int32

	frozen bool
}

// New returns a graph with n isolated vertices and no edges. It panics
// when n exceeds MaxSize: vertex indices must fit the 32-bit Half
// layout.
func New(n int) *Graph {
	if n <= 0 {
		panic(ErrNoVertices)
	}
	if n > MaxSize {
		panic(fmt.Errorf("%w: n=%d", ErrTooLarge, n))
	}
	return &Graph{n: n, adj: make([][]Half, n)}
}

// NewWithDegrees returns a graph with len(degrees) isolated vertices
// whose builder adjacency is preallocated for the given final degrees:
// every list is carved out of one backing []Half, and the edge array
// has room for sum/2 edges, so filling the graph to exactly those
// degrees allocates nothing more. Each list is capped at its declared
// degree, so an AddEdge beyond it reallocates that list instead of
// overwriting its neighbour's. Like New it panics on an empty slice or
// a size outside the 32-bit Half layout, and also on a negative degree.
func NewWithDegrees(degrees []int) *Graph {
	g := New(len(degrees))
	total := 0
	for v, d := range degrees {
		if d < 0 {
			panic(fmt.Sprintf("graph: negative degree %d at vertex %d", d, v))
		}
		total += d
		if total > 2*MaxEdges {
			panic(fmt.Errorf("%w: degree sum exceeds 2·%d", ErrTooLarge, MaxEdges))
		}
	}
	backing := make([]Half, total)
	off := 0
	for v, d := range degrees {
		g.adj[v] = backing[off : off : off+d]
		off += d
	}
	g.edges = make([]Edge, 0, total/2)
	return g
}

// NewFromEdges builds a graph with n vertices and the given edges.
// Parallel edges and loops are retained.
func NewFromEdges(n int, edges []Edge) (*Graph, error) {
	if n <= 0 {
		return nil, ErrNoVertices
	}
	if n > MaxSize {
		return nil, fmt.Errorf("%w: n=%d", ErrTooLarge, n)
	}
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// MustFromEdges is NewFromEdges for statically known-valid inputs; it
// panics on error. Intended for tests and examples.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := NewFromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges (loops count once).
func (g *Graph) M() int { return len(g.edges) }

// Freeze finalises the graph into its flat CSR layout. It is idempotent
// and cheap to call on an already-frozen graph; walk constructors call
// it so that every simulation hot path runs on the flat layout. A
// frozen graph remains fully usable — AddEdge thaws it automatically.
// Freeze itself is not synchronized: freeze before sharing the graph
// across goroutines, not concurrently with other access.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	total := 0
	for _, hs := range g.adj {
		total += len(hs)
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d half-edges exceed the int32 CSR offset range", total))
	}
	g.halves = make([]Half, 0, total)
	g.off = make([]int32, g.n+1)
	for v, hs := range g.adj {
		g.off[v] = int32(len(g.halves))
		g.halves = append(g.halves, hs...)
		g.adj[v] = nil
	}
	g.off[g.n] = int32(len(g.halves))
	g.adj = nil
	g.frozen = true
}

// Frozen reports whether the graph is in its flat CSR state.
func (g *Graph) Frozen() bool { return g.frozen }

// thaw reconstitutes the builder adjacency from the CSR arrays so the
// graph can be mutated again.
func (g *Graph) thaw() {
	if !g.frozen {
		return
	}
	g.adj = make([][]Half, g.n)
	for v := 0; v < g.n; v++ {
		lo, hi := g.off[v], g.off[v+1]
		if lo == hi {
			continue
		}
		g.adj[v] = append([]Half(nil), g.halves[lo:hi]...)
	}
	g.halves, g.off = nil, nil
	g.frozen = false
}

// Halves returns the flat CSR half-edge array, freezing the graph if
// needed. The halves of vertex v occupy Halves()[Offsets()[v]:Offsets()[v+1]].
// The returned slice is owned by the graph and must not be modified;
// it is invalidated by the next AddEdge.
func (g *Graph) Halves() []Half {
	g.Freeze()
	return g.halves
}

// Offsets returns the CSR offset table (length N()+1), freezing the
// graph if needed. The returned slice is owned by the graph and must
// not be modified; it is invalidated by the next AddEdge.
func (g *Graph) Offsets() []int32 {
	g.Freeze()
	return g.off
}

// AddEdge appends an undirected edge {u, v} and returns its edge ID.
// Adding an edge to a frozen graph thaws it back to the builder layout
// (O(n+m) once); interleaved mutation should therefore happen before
// the first Freeze.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: edge {%d,%d} in graph of %d vertices", ErrVertexRange, u, v, g.n)
	}
	if len(g.edges) >= MaxEdges {
		return fmt.Errorf("%w: m=%d", ErrTooLarge, len(g.edges))
	}
	g.thaw()
	id := uint32(len(g.edges))
	g.edges = append(g.edges, Edge{U: u, V: v})
	g.adj[u] = append(g.adj[u], Half{ID: id, To: uint32(v)})
	g.adj[v] = append(g.adj[v], Half{ID: id, To: uint32(u)})
	return nil
}

// Edge returns the endpoints of edge id.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns a copy of the edge array.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Degree returns the degree of v, with each loop counting 2.
func (g *Graph) Degree(v int) int {
	if g.frozen {
		return int(g.off[v+1] - g.off[v])
	}
	return len(g.adj[v])
}

// Adj returns the half-edge adjacency list of v. The returned slice is
// owned by the graph and must not be modified. On a frozen graph it is
// a view into the flat CSR array and is invalidated by the next
// AddEdge.
func (g *Graph) Adj(v int) []Half {
	if g.frozen {
		return g.halves[g.off[v]:g.off[v+1]]
	}
	return g.adj[v]
}

// Neighbors returns the multiset of neighbours of v in a fresh slice
// (a vertex adjacent through k parallel edges appears k times; a loop
// contributes v twice).
func (g *Graph) Neighbors(v int) []int {
	adj := g.Adj(v)
	out := make([]int, len(adj))
	for i, h := range adj {
		out[i] = int(h.To)
	}
	return out
}

// HasEdge reports whether at least one edge joins u and v.
func (g *Graph) HasEdge(u, v int) bool {
	// Scan the shorter list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	for _, h := range g.Adj(u) {
		if int(h.To) == v {
			return true
		}
	}
	return false
}

// EdgeMultiplicity returns the number of parallel edges joining u and v.
// For u == v it returns the number of loops at u.
func (g *Graph) EdgeMultiplicity(u, v int) int {
	count := 0
	for _, h := range g.Adj(u) {
		if int(h.To) == v {
			count++
		}
	}
	if u == v {
		count /= 2 // each loop contributes two halves at u
	}
	return count
}

// IsSimple reports whether the graph has no loops and no parallel edges.
func (g *Graph) IsSimple() bool {
	seen := make(map[Edge]bool, len(g.edges))
	for _, e := range g.edges {
		if e.IsLoop() {
			return false
		}
		key := e
		if key.U > key.V {
			key.U, key.V = key.V, key.U
		}
		if seen[key] {
			return false
		}
		seen[key] = true
	}
	return true
}

// MinDegree returns the minimum vertex degree.
func (g *Graph) MinDegree() int {
	min := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// IsRegular reports whether every vertex has the same degree, returning
// that degree when true.
func (g *Graph) IsRegular() (int, bool) {
	d := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if g.Degree(v) != d {
			return 0, false
		}
	}
	return d, true
}

// IsEvenDegree reports whether every vertex has even degree — the
// structural hypothesis of the paper's Theorem 1 and Observation 10.
func (g *Graph) IsEvenDegree() bool {
	for v := 0; v < g.n; v++ {
		if g.Degree(v)%2 != 0 {
			return false
		}
	}
	return true
}

// DegreeSum returns the sum of all vertex degrees (= 2*M()).
func (g *Graph) DegreeSum() int {
	total := 0
	for v := 0; v < g.n; v++ {
		total += g.Degree(v)
	}
	return total
}

// Clone returns a deep copy of g, in the same (frozen or builder)
// storage state.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		edges:  make([]Edge, len(g.edges)),
		n:      g.n,
		frozen: g.frozen,
	}
	copy(c.edges, g.edges)
	if g.frozen {
		c.halves = append([]Half(nil), g.halves...)
		c.off = append([]int32(nil), g.off...)
		return c
	}
	c.adj = make([][]Half, g.n)
	for v, hs := range g.adj {
		if len(hs) == 0 {
			continue
		}
		c.adj[v] = append([]Half(nil), hs...)
	}
	return c
}

// Validate checks internal consistency: adjacency matches the edge
// array, and the handshake identity sum(deg) = 2m holds.
func (g *Graph) Validate() error {
	if g.n == 0 {
		return ErrNoVertices
	}
	if got, want := g.DegreeSum(), 2*g.M(); got != want {
		return fmt.Errorf("graph: handshake violated: degree sum %d != 2m = %d", got, want)
	}
	if g.frozen {
		if len(g.off) != g.n+1 || g.off[0] != 0 || int(g.off[g.n]) != len(g.halves) {
			return fmt.Errorf("graph: CSR offsets malformed: %d entries for %d vertices, %d halves", len(g.off), g.n, len(g.halves))
		}
		for v := 0; v < g.n; v++ {
			if g.off[v] > g.off[v+1] {
				return fmt.Errorf("graph: CSR offsets not monotone at vertex %d", v)
			}
		}
	}
	halves := 0
	for v := 0; v < g.n; v++ {
		for _, h := range g.Adj(v) {
			if int(h.ID) >= len(g.edges) {
				return fmt.Errorf("graph: vertex %d references edge %d out of range", v, h.ID)
			}
			e := g.edges[h.ID]
			if (e.U != v && e.V != v) || e.Other(v) != int(h.To) {
				return fmt.Errorf("graph: half-edge %+v at vertex %d inconsistent with edge %+v", h, v, e)
			}
			halves++
		}
	}
	if halves != 2*g.M() {
		return fmt.Errorf("graph: %d half-edges for %d edges", halves, g.M())
	}
	return nil
}
