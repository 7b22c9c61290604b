package sim

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

func churnTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, 16)
	for i := 0; i < 8; i++ {
		edges = append(edges, graph.Edge{U: i, V: (i + 1) % 8})
		edges = append(edges, graph.Edge{U: i, V: (i + 2) % 8})
	}
	g := graph.MustFromEdges(8, edges)
	g.Freeze()
	return g
}

// The schedule is a pure function of the generator: the same seed
// applied to two fresh overlays leaves them with identical live sets
// and epochs. This is the property that lets dynamic experiment units
// replay from their derived seeds on checkpoint resume.
func TestChurnScheduleDeterministic(t *testing.T) {
	g := churnTestGraph(t)
	run := func() (*graph.Overlay, uint64) {
		o := graph.NewOverlay(g)
		r := rng.NewRand(rng.NewXoshiro256(42))
		sched := ChurnSchedule{Fail: 0.3, Repair: 0.2}
		for i := 0; i < 500; i++ {
			sched.Step(o, r)
		}
		return o, o.Epoch()
	}
	o1, e1 := run()
	o2, e2 := run()
	if e1 != e2 {
		t.Fatalf("epochs diverged: %d vs %d", e1, e2)
	}
	if o1.LiveEdges() != o2.LiveEdges() {
		t.Fatalf("live counts diverged: %d vs %d", o1.LiveEdges(), o2.LiveEdges())
	}
	for i := 0; i < o1.LiveEdges(); i++ {
		if o1.LiveEdgeAt(i) != o2.LiveEdgeAt(i) {
			t.Fatalf("live edge %d diverged: %d vs %d", i, o1.LiveEdgeAt(i), o2.LiveEdgeAt(i))
		}
	}
	if err := o1.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Freeze means permanent: a certain-failure frozen schedule drains the
// overlay down to the one-edge floor and never restores anything.
func TestChurnScheduleFreezeIsPermanent(t *testing.T) {
	g := churnTestGraph(t)
	o := graph.NewOverlay(g)
	r := rng.NewRand(rng.NewXoshiro256(7))
	sched := ChurnSchedule{Fail: 1, Repair: 1, Freeze: true}
	for i := 0; i < 200; i++ {
		sched.Step(o, r)
	}
	if o.LiveEdges() != 1 {
		t.Fatalf("frozen drain left %d live edges, want the floor of 1", o.LiveEdges())
	}
	if o.RemovedEdges() != g.M()-1 {
		t.Fatalf("%d removed edges, want %d", o.RemovedEdges(), g.M()-1)
	}
}

// A pure-repair schedule undoes removals.
func TestChurnScheduleRepairRestores(t *testing.T) {
	g := churnTestGraph(t)
	o := graph.NewOverlay(g)
	for id := 0; id < 5; id++ {
		if err := o.RemoveEdge(id); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.NewRand(rng.NewXoshiro256(9))
	sched := ChurnSchedule{Repair: 1}
	for i := 0; i < 5; i++ {
		sched.Step(o, r)
	}
	if o.RemovedEdges() != 0 || o.LiveEdges() != g.M() {
		t.Fatalf("repair left %d removed / %d live", o.RemovedEdges(), o.LiveEdges())
	}
}

// PCFCOVER at α = 0 is the static E-process: every trial covers within
// budget. At the highest freeze rate the graph fragments under the walk
// and coverage drops below 1 — uncensored full cover at every α would
// mean the churn never bit.
func TestPcfCoverExperiment(t *testing.T) {
	rows, table := runRows[[]PcfCoverRow](t, "pcfcover", ExpConfig{Seed: 1, Trials: 3})
	if table == nil || len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Alpha != 0 {
		t.Fatalf("first row alpha = %g", rows[0].Alpha)
	}
	if rows[0].Uncovered != 0 || rows[0].Censored != 0 {
		t.Fatalf("alpha=0 row censored: %+v", rows[0])
	}
	if rows[0].CoveredFrac != 1 {
		t.Fatalf("alpha=0 covered frac = %g", rows[0].CoveredFrac)
	}
	last := rows[len(rows)-1]
	if last.CoveredFrac > rows[0].CoveredFrac {
		t.Fatalf("coverage rose with freezing: %+v", last)
	}
	for _, r := range rows {
		if r.Steps <= 0 || r.CoveredFrac < 0 || r.CoveredFrac > 1 {
			t.Fatalf("insane row %+v", r)
		}
	}
}

// CHURNCOVER: the static arm always covers (its budget dwarfs static
// cover times), and the p = 0 dynamic arm — identical engine, zero
// churn — must land near it.
func TestChurnCoverExperiment(t *testing.T) {
	rows, table := runRows[[]ChurnCoverRow](t, "churncover", ExpConfig{Seed: 1, Trials: 3})
	if table == nil || len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.StaticSteps <= 0 {
			t.Fatalf("static arm measured %g steps", r.StaticSteps)
		}
		if r.DynSteps <= 0 || r.DynUncovered < 0 {
			t.Fatalf("insane row %+v", r)
		}
	}
	if rows[0].P != 0 {
		t.Fatalf("first row p = %g", rows[0].P)
	}
	if rows[0].DynUncovered != 0 {
		t.Fatalf("p=0 dynamic arm left %g uncovered", rows[0].DynUncovered)
	}
	// Same distribution, independent seeds: means within a loose factor.
	if s := rows[0].Slowdown; s < 0.25 || s > 4 {
		t.Fatalf("p=0 slowdown = %g, want ≈1", s)
	}
}

// churnBenchGraph is the step benchmarks' graph: a frozen random
// 4-regular graph on 10000 vertices, the size walk's
// BenchmarkEProcessStep times the static step on.
func churnBenchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.RandomRegularSW(rand.New(rand.NewSource(1)), 10000, 4)
	if err != nil {
		b.Fatal(err)
	}
	g.Freeze()
	return g
}

// BenchmarkDynEProcessStepZeroChurn is the overlay engine's step on an
// overlay that never changes: the pure removal-mask-and-cache overhead
// over the static step.
func BenchmarkDynEProcessStepZeroChurn(b *testing.B) {
	e := walk.NewEProcessOn(graph.NewOverlay(churnBenchGraph(b)), rng.NewXoshiro256(3), nil, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkDynEProcessStepChurn adds a 1% failure/repair ChurnSchedule
// event stream; its delta over BenchmarkDynEProcessStepZeroChurn is the
// per-step price of invalidating and rebuilding the live-adjacency
// cache under churn.
func BenchmarkDynEProcessStepChurn(b *testing.B) {
	o := graph.NewOverlay(churnBenchGraph(b))
	r := rng.NewRand(rng.NewXoshiro256(5))
	e := walk.NewEProcessOn(o, r, nil, 0)
	sched := ChurnSchedule{Fail: 0.01, Repair: 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Step(o, r)
		e.Step()
	}
}
