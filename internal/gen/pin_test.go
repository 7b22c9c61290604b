package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// edgeHash is the sha256 of g's edge array in edge-ID order, one
// "u v" line per edge. It changes if any edge, its orientation or its
// position changes, so it pins the generator's exact output, not just
// its law.
func edgeHash(g *graph.Graph) string {
	h := sha256.New()
	for _, e := range g.Edges() {
		fmt.Fprintf(h, "%d %d\n", e.U, e.V)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mixedDegrees is a 4/6/8 degree sequence on n vertices (n a multiple
// of 3, so the degree sum is even).
func mixedDegrees(n int) []int {
	degrees := make([]int, n)
	for v := range degrees {
		degrees[v] = 4 + 2*(v%3)
	}
	return degrees
}

// TestGeneratorEdgeOrderPinned pins the exact edge sequence of the
// random generators at fixed seeds. Every registry table is a function
// of these sequences, so a rewrite of a generator's internals must
// reproduce them edge for edge: same accept/reject predicate, same
// draws in the same order.
func TestGeneratorEdgeOrderPinned(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
		want  string
	}{
		{"sw-n200-d4-seed1", func() (*graph.Graph, error) { return RandomRegularSW(newRand(1), 200, 4) },
			"f0b26817dfeb950fad1f85bffae3d8fa7928b8a5656298c3170c1de6f99d005a"},
		{"sw-n200-d4-seed7", func() (*graph.Graph, error) { return RandomRegularSW(newRand(7), 200, 4) },
			"0dd83270e36c86302bf6f999f296a8fc9b75467b672d475433f2665b2f237951"},
		{"sw-n200-d3-seed1", func() (*graph.Graph, error) { return RandomRegularSW(newRand(1), 200, 3) },
			"f7a08ae285c55a152a790f6eceb5788a50811f1ddd399d360b98df248e4fbd59"},
		{"degseq-sw-468-seed1", func() (*graph.Graph, error) { return RandomDegreeSequenceSW(newRand(1), mixedDegrees(120)) },
			"80af734bc52a2b86cb5aba7fd875540fa5d430c8017be0b9780bd4719c1ceb12"},
		{"degseq-sw-468-seed7", func() (*graph.Graph, error) { return RandomDegreeSequenceSW(newRand(7), mixedDegrees(120)) },
			"a971b9f17440454bfe460bfab9c49636324ce00b5f75707ffa16156222689264"},
		{"pairing-n30-d4-seed1", func() (*graph.Graph, error) { return RandomRegular(newRand(1), 30, 4) },
			"4109698f6e46c7331787c117b8cb23e5241ec55c7487ebc9ef57badd72584be6"},
		{"pairing-n30-d4-seed7", func() (*graph.Graph, error) { return RandomRegular(newRand(7), 30, 4) },
			"69aef4c29cfc8d27d0d05bd899cadc689eea1538db9d21840397efea7b45319c"},
		{"degseq-pairing-seed3", func() (*graph.Graph, error) {
			return RandomDegreeSequence(newRand(3), []int{4, 4, 4, 4, 6, 6, 4, 4})
		}, "df3f25f130256c259b04fdf7b49c8ab9904a401bd7a80fb09177159de73e286b"},
		{"degseq-pairing-seed42", func() (*graph.Graph, error) {
			return RandomDegreeSequence(newRand(42), []int{4, 4, 4, 4, 6, 6, 4, 4})
		}, "79d61aec12d8a8b303572f4f3a393c9282d81a83ca25f6dd889ef8baf5c2a6de"},
	}
	for _, tc := range cases {
		g, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := edgeHash(g); got != tc.want {
			t.Errorf("%s: edge hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
