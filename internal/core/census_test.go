package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestCensusOutputPinned pins Census's exact output — every cycle's
// vertex and edge lists, in order — on simple graphs, where the order is
// a pure function of the graph. A rewrite of the enumeration's internals
// must reproduce it cycle for cycle.
func TestCensusOutputPinned(t *testing.T) {
	regular := func(seed int64, n, d int) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			return gen.RandomRegularSW(rand.New(rand.NewSource(seed)), n, d)
		}
	}
	cases := []struct {
		name        string
		build       func() (*graph.Graph, error)
		maxLen, cap int
		want        string
	}{
		{"sw-n300-d4-len6", regular(1, 300, 4), 6, 0, "c27e8a923dafc5241a7406d729394597141f4abcdef9a2cae3c1cbe3255cb6b5"},
		{"sw-n200-d3-len8", regular(2, 200, 3), 8, 0, "013c8a9f62da084adc9528d24395a7d112c53e9fdd8ea96f2a746fe767687f32"},
		{"k6-len6", func() (*graph.Graph, error) { return gen.Complete(6) }, 6, 0, "043709357739a1360081265865655476828709fcc43d6064c9c0c467737e025f"},
		{"k8-len8-cap50", func() (*graph.Graph, error) { return gen.Complete(8) }, 8, 50, "08fa48908f4f9ed7ad24705516ea1ac44308b0f1566124346a68b8798707b9d3"},
	}
	for _, tc := range cases {
		g, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cycles, _ := Census(g, tc.maxLen, tc.cap)
		sum := sha256.Sum256([]byte(fmt.Sprint(cycles)))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: census hash %s (%d cycles), want %s", tc.name, got, len(cycles), tc.want)
		}
	}
}

// Census's output order on a multigraph must not depend on map
// iteration: an 8-cycle with every other edge doubled has four
// 2-cycles, and 50 calls must list them identically.
func TestCensusDeterministicOnMultigraph(t *testing.T) {
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		if err := g.AddEdge(i, (i+1)%8); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := g.AddEdge(i, i+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	first, err := Census(g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if counts := CycleCounts(first, 4); counts[2] != 4 {
		t.Fatalf("2-cycles = %d, want 4", counts[2])
	}
	want := fmt.Sprint(first)
	for call := 1; call < 50; call++ {
		cycles, err := Census(g, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(cycles); got != want {
			t.Fatalf("call %d: census %s, first call gave %s", call, got, want)
		}
	}
}

func BenchmarkCensus(b *testing.B) {
	g, err := gen.RandomRegularSW(rand.New(rand.NewSource(1)), 1000, 4)
	if err != nil {
		b.Fatal(err)
	}
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Census(g, 6, 0); err != nil {
			b.Fatal(err)
		}
	}
}
