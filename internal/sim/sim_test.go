package sim

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

func regularFactory(n, d int) GraphFactory {
	return func(r *rand.Rand) (*graph.Graph, error) {
		return gen.RandomRegularSW(r, n, d)
	}
}

func eprocessFactory(g *graph.Graph, r *rng.Rand, start int) walk.Process {
	return walk.NewEProcess(g, r, nil, start)
}

func srwFactory(g *graph.Graph, r *rng.Rand, start int) walk.Process {
	return walk.NewSimple(g, r, start)
}

// runOnePoint runs cfg.Trials trials of one arm on a one-point plan:
// the single-point trial batch the TestRun* tests pin. It keeps the
// retired saltRun namespace, so these tests walk the trajectories they
// always did.
func runOnePoint(cfg Config, gf GraphFactory, arm Arm) (ArmResult, error) {
	plan := SweepPlan{
		Config: cfg,
		Points: []PointSpec{{Key: "run", Salt: Salt(saltRun), Graph: gf, Arms: []Arm{arm}}},
	}
	points, err := plan.Run()
	if err != nil {
		return ArmResult{}, err
	}
	return points[0].Arms[0], nil
}

func TestRunBasic(t *testing.T) {
	res, err := runOnePoint(Config{Seed: 1, Trials: 4}, regularFactory(60, 4), CoverArm("cover", eprocessFactory))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measurements) != 4 {
		t.Fatalf("measurements = %d, want 4", len(res.Measurements))
	}
	if res.VertexStats.Mean < 59 {
		t.Errorf("vertex cover mean %v below n-1", res.VertexStats.Mean)
	}
	if res.EdgeStats.Mean < 120 {
		t.Errorf("edge cover mean %v below m", res.EdgeStats.Mean)
	}
	if res.EdgeStats.Mean < res.VertexStats.Mean {
		t.Error("edge cover cannot be faster than vertex cover on these graphs")
	}
}

func TestRunReproducibleAcrossWorkers(t *testing.T) {
	a, err := runOnePoint(Config{Seed: 42, Trials: 6, Workers: 1}, regularFactory(40, 4), CoverArm("cover", eprocessFactory))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOnePoint(Config{Seed: 42, Trials: 6, Workers: 4}, regularFactory(40, 4), CoverArm("cover", eprocessFactory))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Measurements {
		if !a.Measurements[i].Equal(b.Measurements[i]) {
			t.Fatalf("trial %d differs across worker counts: %+v vs %+v",
				i, a.Measurements[i], b.Measurements[i])
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a, err := runOnePoint(Config{Seed: 1, Trials: 3}, regularFactory(40, 4), CoverArm("cover", eprocessFactory))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOnePoint(Config{Seed: 2, Trials: 3}, regularFactory(40, 4), CoverArm("cover", eprocessFactory))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Measurements {
		if a.Measurements[i].Equal(b.Measurements[i]) {
			same++
		}
	}
	if same == len(a.Measurements) {
		t.Error("different seeds produced identical measurements")
	}
}

func TestRunMTKind(t *testing.T) {
	res, err := runOnePoint(Config{Seed: 7, Trials: 2, Kind: rng.KindMT19937}, regularFactory(30, 4), CoverArm("cover", eprocessFactory))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measurements) != 2 {
		t.Fatal("wrong trial count")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := runOnePoint(Config{}, nil, CoverArm("cover", eprocessFactory)); err == nil {
		t.Error("nil graph factory should fail")
	}
	// A nil process factory leaves the arm without a Run func.
	if _, err := runOnePoint(Config{}, regularFactory(30, 4), Arm{Name: "cover"}); err == nil {
		t.Error("nil process factory should fail")
	}
	// Graph factory error propagates.
	bad := func(r *rand.Rand) (*graph.Graph, error) { return gen.RandomRegular(r, 5, 5) }
	if _, err := runOnePoint(Config{Trials: 1}, bad, CoverArm("cover", eprocessFactory)); err == nil {
		t.Error("factory error should propagate")
	}
	// Budget exhaustion propagates.
	if _, err := runOnePoint(Config{Trials: 1, MaxSteps: 3}, regularFactory(30, 4), CoverArm("cover", srwFactory)); err == nil {
		t.Error("tiny budget should propagate cover error")
	}
}

func TestRunVertexOnly(t *testing.T) {
	res, err := runOnePoint(Config{Seed: 3, Trials: 3}, regularFactory(50, 4), VertexArm("vertex-cover", srwFactory))
	if err != nil {
		t.Fatal(err)
	}
	if res.VertexStats.N != 3 {
		t.Fatal("wrong sample size")
	}
	if res.VertexStats.Mean < 49 {
		t.Error("impossible cover time")
	}
}

func TestFigure1SmallRun(t *testing.T) {
	series, err := Figure1(Figure1Config{
		Degrees: []int{3, 4},
		Ns:      []int{100, 200, 400},
		Trials:  3,
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 3 {
			t.Fatalf("d=%d points = %d, want 3", s.Degree, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Normalized < 1 {
				t.Errorf("d=%d n=%d: normalised cover %v < 1 impossible", p.Degree, p.N, p.Normalized)
			}
		}
		if !s.HasFit {
			t.Errorf("d=%d: no growth fit", s.Degree)
		}
	}
	// Even degree should normalise smaller than odd at the same n
	// (d=4 linear vs d=3 n·log n) — check the largest-n point.
	d3 := series[0].Points[2].Normalized
	d4 := series[1].Points[2].Normalized
	if d4 >= d3 {
		t.Errorf("C_V/n at n=400: d=4 (%v) should be below d=3 (%v)", d4, d3)
	}
}

func TestFigure1Infeasible(t *testing.T) {
	if _, err := Figure1(Figure1Config{Degrees: []int{3}, Ns: []int{101}, Trials: 1}); err == nil {
		t.Error("odd n·d should be rejected")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.AddRow(1, 2.5)
	tb.AddRow("x", 3)
	var text, csv bytes.Buffer
	if err := tb.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "== demo ==") {
		t.Error("title missing")
	}
	if !strings.Contains(csv.String(), "a,b\n1,2.5\n") {
		t.Errorf("csv wrong:\n%s", csv.String())
	}
}

func TestFigure1Table(t *testing.T) {
	series := []Figure1Series{{
		Degree: 4,
		Points: []Figure1Point{{Degree: 4, N: 100, Normalized: 2.5, StdErr: 0.1, Trials: 5}},
	}}
	tb := Figure1Table(series)
	var buf bytes.Buffer
	if err := tb.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2.5") {
		t.Error("point missing from table")
	}
}
