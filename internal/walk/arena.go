package walk

import (
	"repro/internal/bits"
	"repro/internal/graph"
)

// reuse returns a zeroed length-n slice, recycling s's storage when
// its capacity suffices — the walk package's standard pattern for
// keeping Reset and the cover drivers allocation-free once warmed up.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// edgeArena is the flat pending-halves store shared by the
// unvisited-edge walks (EProcess, Biased). It mirrors the graph's CSR
// layout: one contiguous []Half block holding every vertex's pending
// (not-yet-visited) half-edges, delimited per vertex by the graph's
// offset table on the left and a mutable end cursor on the right.
//
// Invariants:
//   - pending halves of v occupy halves[off[v]:end[v]], with
//     off[v] <= end[v] <= off[v+1];
//   - EProcess deletes both halves of each crossed edge (remove, then
//     removeEdge), so its blocks hold only unvisited halves; Biased
//     lets a half whose edge has been visited linger until that vertex
//     is next pruned (lazy deletion, each half is removed at most once
//     so total maintenance is O(m) per run);
//   - reset restores every block to the graph's full adjacency by one
//     flat copy — no per-vertex allocation, and after the first reset
//     no allocation at all.
type edgeArena struct {
	halves []graph.Half // mutable working copy of the graph's CSR halves
	off    []int32      // graph-owned CSR offsets; read-only here
	end    []int32      // end[v]: exclusive end of v's live pending block
}

// reset (re)initialises the arena from g's CSR block, reusing existing
// storage when the sizes match (always, after the first call on a given
// graph).
func (a *edgeArena) reset(g *graph.Graph) {
	src := g.Halves()
	a.off = g.Offsets()
	if len(a.halves) != len(src) {
		a.halves = make([]graph.Half, len(src))
	}
	copy(a.halves, src)
	if len(a.end) != g.N() {
		a.end = make([]int32, g.N())
	}
	copy(a.end, a.off[1:])
}

// pending returns the live pending block of v. The slice aliases the
// arena; it is invalidated by prune, remove, removeEdge and reset.
func (a *edgeArena) pending(v int) []graph.Half {
	return a.halves[a.off[v]:a.end[v]]
}

// prune deletes (by swap with the block's last element) every pending
// half of v whose edge is already visited — Biased's lazy deletion,
// needed because its non-preferring steps may cross unvisited edges
// through the full adjacency, which can leave several stale halves in
// one block. On an empty block the loop body never runs, so callers
// need no emptiness pre-check.
func (a *edgeArena) prune(v int, visited *bits.Set) {
	lo, hi := a.off[v], a.end[v]
	for i := lo; i < hi; {
		if visited.Test(int(a.halves[i].ID)) {
			hi--
			a.halves[i] = a.halves[hi]
		} else {
			i++
		}
	}
	a.end[v] = hi
}

// remove deletes index i of v's pending block (an index into the slice
// returned by pending) by swapping the block's last element into it.
func (a *edgeArena) remove(v, i int) {
	hi := a.end[v] - 1
	a.halves[a.off[v]+int32(i)] = a.halves[hi]
	a.end[v] = hi
}

// removeEdge deletes v's pending half of edge id, if present, by the
// same swap-with-last as remove.
func (a *edgeArena) removeEdge(v int, id uint32) {
	for i, h := range a.pending(v) {
		if h.ID == id {
			a.remove(v, i)
			return
		}
	}
}
