package main

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/walk"
)

func testRand() *rand.Rand { return rand.New(rng.New(rng.KindXoshiro, 1)) }

// TestBuildGraphKinds builds every family the -graph help lists, the
// way run does, and checks each comes out non-empty and connected.
func TestBuildGraphKinds(t *testing.T) {
	r := testRand()
	for _, kind := range strings.Split(gen.NamedKinds, " | ") {
		g, err := gen.Named(kind, 50, 4, 5, r)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.N() == 0 {
			t.Errorf("%s: empty graph", kind)
		}
		if !g.IsConnected() {
			t.Errorf("%s: disconnected", kind)
		}
	}
	// odd n·d is bumped to n+1 rather than rejected
	if g, err := gen.Named("regular", 51, 3, 0, r); err != nil || g.N() != 52 {
		t.Errorf("regular n=51 d=3: err=%v", err)
	}
	if _, err := gen.Named("nope", 10, 3, 3, r); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestRuleByName(t *testing.T) {
	names := map[string]string{
		"uniform":     "uniform",
		"lowest":      "lowest-edge-first",
		"highest":     "highest-edge-first",
		"round-robin": "round-robin",
		"adversary":   "adversary-toward-visited",
		"greedy":      "toward-unvisited",
		"other":       "uniform", // default
	}
	for arg, want := range names {
		if got := ruleByName(arg).Name(); got != want {
			t.Errorf("ruleByName(%q) = %q, want %q", arg, got, want)
		}
	}
}

func TestBuildProcessKinds(t *testing.T) {
	r := testRand()
	g, err := gen.Named("torus", 25, 0, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"eprocess", "srw", "lazy", "rwc2", "rwc3", "rotor", "least-used", "oldest-first"} {
		p, err := buildProcess(name, "uniform", g, r, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := walk.VertexCoverSteps(p, 0); err != nil {
			t.Fatalf("%s cover: %v", name, err)
		}
	}
	if _, err := buildProcess("nope", "uniform", g, r, 0); err == nil {
		t.Error("unknown process should fail")
	}
}
