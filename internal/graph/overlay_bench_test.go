package graph_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// BenchmarkOverlayRemoveRestore times one RemoveEdge+RestoreEdge pair
// on a uniformly drawn live edge of a random 4-regular graph on 10000
// vertices: the overlay's mutation cost in isolation, without a walk.
func BenchmarkOverlayRemoveRestore(b *testing.B) {
	g, err := gen.RandomRegularSW(rand.New(rand.NewSource(1)), 10000, 4)
	if err != nil {
		b.Fatal(err)
	}
	g.Freeze()
	o := graph.NewOverlay(g)
	r := rng.NewXoshiro256(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := o.LiveEdgeAt(r.Intn(o.LiveEdges()))
		if err := o.RemoveEdge(id); err != nil {
			b.Fatal(err)
		}
		if err := o.RestoreEdge(id); err != nil {
			b.Fatal(err)
		}
	}
}
