package main

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/trace"
)

func TestCoverageBuildHelpers(t *testing.T) {
	r := rand.New(rng.New(rng.KindXoshiro, 1))
	g, err := gen.Named("regular", 40, 4, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"srw", "eprocess", "vprocess", "rwc2", "rwc3", "rotor", "biased"} {
		p, err := buildProcess(name, g, r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec, err := trace.RunUntilVertexCover(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		curve, err := rec.VertexCoverageCurve(defaultFractions)
		if err != nil {
			t.Fatal(err)
		}
		if curve[len(curve)-1] <= 0 {
			t.Errorf("%s: no cover step", name)
		}
	}
	if _, err := buildProcess("nope", g, r); err == nil {
		t.Error("unknown process should fail")
	}
}
