package main

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

// TestGraphinfoBuildGraph builds every family the -graph help lists,
// the way run does, and checks each passes Validate.
func TestGraphinfoBuildGraph(t *testing.T) {
	r := rand.New(rng.New(rng.KindXoshiro, 1))
	for _, kind := range strings.Split(gen.NamedKinds, " | ") {
		g, err := gen.Named(kind, 40, 4, 4, r)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.N() == 0 {
			t.Errorf("%s: empty graph", kind)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	if _, err := gen.Named("nope", 10, 4, 4, r); err == nil {
		t.Error("unknown kind should fail")
	}
}
