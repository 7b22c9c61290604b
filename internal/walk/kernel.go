package walk

import (
	"fmt"
	mbits "math/bits"

	"repro/internal/graph"
	"repro/internal/rng"
)

// UniformCover runs a Uniform-rule E-process on g from start until its
// vertices and edges are both covered, and returns exactly what
// Cover(NewEProcess(g, r, nil, start), maxSteps) returns — cover times,
// and on censoring the same partial times and byte-identical
// ErrStepBudget message — without building a process.
//
// The kernel keeps the E-process state in the scratch's own pending
// arena (a copy of g's CSR halves with per-vertex end cursors) and
// deletes each visited edge's two halves exactly, where EProcess keeps
// a visited-edge bitset and lazily prunes stale halves out of a pending
// block every time the walk stands on its owner (the dominant cost of a
// full cover under the profiler). The chosen half goes at selection;
// the other half goes on the arrival that immediately follows, found by
// scanning the arrival block for the one known edge ID — a handful of
// sequential compares against entries the arrival loads anyway. That
// is exact because staleness in EProcess is degenerate: a half of v
// goes stale only when the walk crosses that edge from the other
// endpoint — and that crossing moves the walk to v itself, whose very
// next prune removes it. Every EProcess prune scan therefore removes
// exactly the one just-crossed twin (or nothing), with the same
// swap-with-last the targeted deletion uses, so block arrangements —
// and hence every bounded draw over them — are identical under both.
//
// Dropping the bitset pays twice more. A pending block holds exactly
// the unvisited incident edges at all times, so a blue step always
// covers a new edge and a red step (pending empty: every incident edge
// already crossed) never does — edge-cover accounting is a bare
// counter. And because pending entries are the halves themselves, a
// blue step's one 8-byte load yields the destination and the edge ID
// together; the CSR is only read on red steps.
//
// Determinism: the kernel consumes randomness exactly as the fused
// Uniform EProcess does — deletion draws nothing, a blue step draws one
// bounded int over the pending count, a red step one over the full
// adjacency — so its trajectory is draw-for-draw identical to
// EProcess.Step with the same generator. golden_test.go pins this
// against the recorded math/rand trajectories and batch_test.go against
// the Process drivers over randomized shapes.
func (sc *CoverScratch) UniformCover(g *graph.Graph, r Intner, start int, maxSteps int64) (CoverTimes, error) {
	_, ct, err := sc.uniform(g, r, start, maxSteps, true)
	return ct, err
}

// UniformVertexCover is UniformCover stopped at vertex cover: it
// returns exactly what VertexCoverSteps(NewEProcess(g, r, nil, start),
// maxSteps) returns, budget default and error message included.
func (sc *CoverScratch) UniformVertexCover(g *graph.Graph, r Intner, start int, maxSteps int64) (int64, error) {
	steps, _, err := sc.uniform(g, r, start, maxSteps, false)
	return steps, err
}

// sized returns a length-n slice reusing s's storage when it suffices.
// Contents are unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// uniform is the kernel behind UniformCover and UniformVertexCover. It
// returns the steps taken (the budget when censored), the cover times
// observed, and the censoring error.
func (sc *CoverScratch) uniform(g *graph.Graph, r Intner, start int, maxSteps int64, edges bool) (int64, CoverTimes, error) {
	csr := g.Halves() // freezes g if needed
	off := g.Offsets()
	n, m := g.N(), g.M()
	sc.pend = sized(sc.pend, len(csr))
	sc.end = sized(sc.end, n)
	pend, end := sc.pend, sc.end
	copy(pend, csr)
	copy(end, off[1:])
	seenV := sc.vertexSeen(n)
	seenV.Set(start) // the start vertex counts as visited at step 0
	trace := sc.trace

	leftV, leftE := n-1, 0
	budget := maxSteps
	if edges {
		leftE = m
		if budget <= 0 {
			budget = defaultBudget(n + m)
		}
	} else if budget <= 0 {
		budget = defaultBudget(n)
	}

	// Hoist the generator state into registers for the run: the draw
	// below is the xoshiro256** update plus Lemire reduction replicated
	// inline (pinned by rng's TestStateInlineUpdateMatches and the walk
	// golden tests), because at ~a dozen nanoseconds per step even one
	// function call per draw is a measurable tax. rng.Rand delegates
	// Intn to its source unchanged, so unwrapping it preserves the
	// stream exactly. Every exit writes the words back.
	var xr *rng.Xoshiro256
	switch s := r.(type) {
	case *rng.Xoshiro256:
		xr = s
	case *rng.Rand:
		xr, _ = s.Source().(*rng.Xoshiro256)
	}
	var st *[4]uint64
	var s0, s1, s2, s3 uint64
	if xr != nil {
		st = xr.State()
		s0, s1, s2, s3 = st[0], st[1], st[2], st[3]
	}

	var ct CoverTimes
	var steps int64
	var err error
	cur := start
	tp := int64(-1) // edge ID whose second half awaits deletion at cur
	for leftV|leftE != 0 {
		if steps >= budget {
			if edges {
				err = fmt.Errorf("%w: %d vertices, %d edges uncovered after %d steps",
					ErrStepBudget, leftV, leftE, steps)
			} else {
				err = fmt.Errorf("%w: %d vertices unvisited after %d steps",
					ErrStepBudget, leftV, steps)
			}
			break
		}
		v := cur
		lo, hi := off[v], end[v]
		// Apply the deferred deletion: the blue step that brought the
		// walk here left the crossed edge's other half in this very
		// block (the single-staleness argument above), and EProcess's
		// arrival prune removes it now, before the draw.
		if tp >= 0 {
			t := uint32(tp)
			tp = -1
			hi--
			p := lo
			for pend[p].ID != t {
				p++
			}
			pend[p] = pend[hi]
			end[v] = hi
		}
		// Blue draws over the pending block, red (pending empty) over
		// the full adjacency: one bounded int either way.
		cnt := hi - lo
		src, bound := pend, cnt
		if cnt == 0 {
			src, bound = csr, off[v+1]-lo
			if bound <= 0 {
				// Isolated vertex: EProcess's Intn(0) panics; keep the
				// inline path's behaviour identical.
				panic("rng: Intn with non-positive bound")
			}
		}
		var j int32
		if st != nil {
			un := uint64(bound)
			res := mbits.RotateLeft64(s1*5, 7) * 9
			t64 := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t64
			s3 = mbits.RotateLeft64(s3, 45)
			hi64, lo64 := mbits.Mul64(res, un)
			if lo64 < un {
				thresh := -un % un
				for lo64 < thresh {
					res = mbits.RotateLeft64(s1*5, 7) * 9
					t64 = s1 << 17
					s2 ^= s0
					s3 ^= s1
					s1 ^= s2
					s0 ^= s3
					s2 ^= t64
					s3 = mbits.RotateLeft64(s3, 45)
					hi64, lo64 = mbits.Mul64(res, un)
				}
			}
			j = lo + int32(hi64)
		} else {
			j = lo + int32(r.Intn(int(bound)))
		}
		h := src[j]
		if cnt > 0 {
			// Blue: the selection's own swap-with-last; the chosen
			// edge's other half is left for the next arrival. A blue
			// step always covers a new edge.
			hi--
			pend[j] = pend[hi]
			end[v] = hi
			tp = int64(h.ID)
			if leftE > 0 {
				if leftE--; leftE == 0 {
					ct.Edge = steps + 1
				}
			}
		}
		cur = int(h.To)
		steps++
		if trace != nil {
			trace(int(h.ID), cur)
		}
		if leftV > 0 && !seenV.Test(cur) {
			seenV.Set(cur)
			if leftV--; leftV == 0 {
				ct.Vertex = steps
			}
		}
	}
	if st != nil {
		st[0], st[1], st[2], st[3] = s0, s1, s2, s3
	}
	return steps, ct, err
}
