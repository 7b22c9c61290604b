package gen

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// ErrDegreeSequence reports an unrealisable degree request.
var ErrDegreeSequence = errors.New("gen: infeasible degree sequence")

// RandomRegular returns a uniformly random simple connected r-regular
// graph on n vertices, generated by the pairing (configuration) model
// with rejection of configurations containing loops, parallel edges, or
// disconnection. Conditioned on acceptance the simple graphs are exactly
// uniform; for constant r the acceptance probability tends to the
// constant e^{-(r²-1)/4}, so expected retries are O(1).
//
// For large n prefer RandomRegularSW, which is what the paper's own
// experiments used (via NetworkX).
func RandomRegular(r *rand.Rand, n, deg int) (*graph.Graph, error) {
	if err := checkRegular(n, deg); err != nil {
		return nil, err
	}
	degrees := constantDegrees(n, deg)
	points := make([]int, 0, n*deg)
	const maxAttempts = 10000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g, ok := pairingAttempt(r, degrees, points)
		if ok && g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: pairing model failed after retries (n=%d, r=%d)", n, deg)
}

// pairingAttempt runs one round of the configuration model: lay out one
// point per half-edge (vertex v repeated degrees[v] times) in points'
// backing array, shuffle them uniformly, pair consecutive points, and
// reject on a loop or a parallel edge. g holds exactly the pairs made
// so far, so HasEdge is the parallel-edge test.
func pairingAttempt(r *rand.Rand, degrees, points []int) (*graph.Graph, bool) {
	points = points[:0]
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			points = append(points, v)
		}
	}
	r.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	g := graph.NewWithDegrees(degrees)
	for i := 0; i < len(points); i += 2 {
		u, v := points[i], points[i+1]
		if u == v || g.HasEdge(u, v) {
			return nil, false
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	return g, true
}

// RandomRegularSW returns a random simple connected r-regular graph
// using a Steger–Wormald-style incremental pairing: unmatched half-edge
// points are paired one at a time, always rejecting pairs that would
// create a loop or parallel edge; if the process gets stuck (all
// remaining feasible pairs exhausted) the whole attempt restarts. The
// resulting distribution is asymptotically uniform for constant degree
// (Steger & Wormald 1999) and the algorithm is the one behind the
// NetworkX generator the paper used. It is RandomDegreeSequenceSW on
// the constant sequence, draw for draw.
func RandomRegularSW(r *rand.Rand, n, deg int) (*graph.Graph, error) {
	if err := checkRegular(n, deg); err != nil {
		return nil, err
	}
	if g, ok := swPairing(r, constantDegrees(n, deg), n*deg); ok {
		return g, nil
	}
	return nil, fmt.Errorf("gen: Steger-Wormald failed after retries (n=%d, r=%d)", n, deg)
}

func checkRegular(n, deg int) error {
	if n <= 0 || deg <= 0 {
		return fmt.Errorf("%w: n=%d, r=%d must be positive", ErrDegreeSequence, n, deg)
	}
	if deg >= n {
		return fmt.Errorf("%w: r=%d must be < n=%d for a simple graph", ErrDegreeSequence, deg, n)
	}
	if n*deg%2 != 0 {
		return fmt.Errorf("%w: n·r = %d·%d is odd", ErrDegreeSequence, n, deg)
	}
	return nil
}

func constantDegrees(n, deg int) []int {
	degrees := make([]int, n)
	for v := range degrees {
		degrees[v] = deg
	}
	return degrees
}

// checkSequence validates a degree sequence for a simple graph and
// returns its degree sum.
func checkSequence(degrees []int) (int, error) {
	n := len(degrees)
	if n == 0 {
		return 0, fmt.Errorf("%w: empty sequence", ErrDegreeSequence)
	}
	total := 0
	for v, d := range degrees {
		if d < 0 || d >= n {
			return 0, fmt.Errorf("%w: degree %d at vertex %d", ErrDegreeSequence, d, v)
		}
		total += d
	}
	if total%2 != 0 {
		return 0, fmt.Errorf("%w: odd degree sum %d", ErrDegreeSequence, total)
	}
	return total, nil
}

// RandomDegreeSequenceSW returns a random simple connected graph with
// the given degree sequence using the Steger–Wormald-style incremental
// pairing of RandomRegularSW generalised to non-uniform stubs. For
// heterogeneous sequences the whole-configuration rejection of
// RandomDegreeSequence has exponentially small acceptance (e.g. ~1e−4
// for a 4/6/8 mixture), while incremental pairing accepts almost
// always; prefer this constructor for experiments.
func RandomDegreeSequenceSW(r *rand.Rand, degrees []int) (*graph.Graph, error) {
	total, err := checkSequence(degrees)
	if err != nil {
		return nil, err
	}
	if g, ok := swPairing(r, degrees, total); ok {
		return g, nil
	}
	return nil, fmt.Errorf("gen: degree-sequence SW failed after retries (n=%d)", len(degrees))
}

// swPairing restarts swSequenceAttempt until it yields a connected
// graph, giving up after a fixed number of restarts.
func swPairing(r *rand.Rand, degrees []int, total int) (*graph.Graph, bool) {
	const maxRestarts = 1000
	for attempt := 0; attempt < maxRestarts; attempt++ {
		g, ok := swSequenceAttempt(r, degrees, total)
		if ok && g.IsConnected() {
			return g, true
		}
	}
	return nil, false
}

func swSequenceAttempt(r *rand.Rand, degrees []int, total int) (*graph.Graph, bool) {
	// live is the multiset of vertices with unmatched half-edges, one
	// entry per half-edge, maintained with swap-delete for O(1) removal.
	live := make([]int, 0, total)
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			live = append(live, v)
		}
	}
	g := graph.NewWithDegrees(degrees)
	for len(live) > 0 {
		// Pick a uniformly random feasible pair; give up on this
		// attempt after too many consecutive infeasible draws, which
		// happens only near the end of a doomed pairing. g holds
		// exactly the pairs made so far, so HasEdge (a scan of at most
		// deg halves) is the parallel-edge test.
		const patience = 2000
		paired := false
		for try := 0; try < patience; try++ {
			i := r.Intn(len(live))
			j := r.Intn(len(live))
			u, v := live[i], live[j]
			if u == v || g.HasEdge(u, v) {
				continue
			}
			// Swap-delete the two half-edges, higher index first so
			// the first removal cannot move the second entry.
			if i < j {
				i, j = j, i
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
			paired = true
			break
		}
		if !paired {
			return nil, false
		}
	}
	return g, true
}

// RandomDegreeSequence returns a random simple connected graph with the
// given degree sequence, via the configuration model with rejection.
// This realises the paper's "fixed degree sequence random graphs, with
// all vertex degrees d(v) ≥ 4, even and finite" family. The
// distribution is exactly uniform conditioned on acceptance, but the
// acceptance probability decays fast with degree spread — see
// RandomDegreeSequenceSW for the scalable variant.
func RandomDegreeSequence(r *rand.Rand, degrees []int) (*graph.Graph, error) {
	total, err := checkSequence(degrees)
	if err != nil {
		return nil, err
	}
	points := make([]int, 0, total)
	const maxAttempts = 20000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g, ok := pairingAttempt(r, degrees, points)
		if ok && g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: degree-sequence model failed after retries (n=%d)", len(degrees))
}
