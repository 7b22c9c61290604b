package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// NamedKinds lists the families Named builds, in the form the CLIs'
// -graph flags print.
const NamedKinds = "regular | hypercube | torus | cycle | circulant | rgg | margulis"

// Named builds the graph family the CLIs select with -graph:
//
//   - regular: a Steger–Wormald random degree-regular graph on n
//     vertices (n+1 when n·degree is odd);
//   - hypercube: H_dim;
//   - torus: the side×side torus, side = ⌊√n⌋ but at least 3;
//   - cycle: C_n;
//   - circulant: C_n(1, ⌊√n⌋);
//   - rgg: a connected random geometric graph on n vertices;
//   - margulis: the Margulis expander on Z_k × Z_k, k = ⌊√n⌋.
//
// Only regular and rgg draw from r.
func Named(kind string, n, degree, dim int, r *rand.Rand) (*graph.Graph, error) {
	switch kind {
	case "regular":
		if n*degree%2 != 0 {
			n++
		}
		return RandomRegularSW(r, n, degree)
	case "hypercube":
		return Hypercube(dim)
	case "torus":
		side := max(int(math.Sqrt(float64(n))), 3)
		return Torus(side, side)
	case "cycle":
		return Cycle(n)
	case "circulant":
		return Circulant(n, []int{1, int(math.Sqrt(float64(n)))})
	case "rgg":
		return RandomGeometricConnected(r, n, 0)
	case "margulis":
		return Margulis(int(math.Sqrt(float64(n))))
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}
