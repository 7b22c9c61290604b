package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

// allExperimentPlans enumerates every registered experiment's sweep
// plan — the whole `sweep -exp all` surface, Figure 1 included —
// without running any of them. Enumerating through Registry() means a
// newly registered experiment is automatically subject to the
// seed-distinctness regression below.
func allExperimentPlans(cfg ExpConfig) []*SweepPlan {
	reg := Registry()
	if len(reg) < 20 {
		panic(fmt.Sprintf("registry has only %d experiments", len(reg)))
	}
	plans := make([]*SweepPlan, 0, len(reg))
	for _, e := range reg {
		plan, _, err := e.Plan(cfg)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", e.Name, err))
		}
		plans = append(plans, plan)
	}
	return plans
}

// Regression test for the seed-salt collision class of bugs (the
// pre-sweep process-comparison experiment hand-mixed
// `cfg.Seed^uint64(fi)<<8|uint64(pi)`, which parses as
// `(cfg.Seed^(fi<<8))|pi` and ORs the point index into the final seed):
// every seed derived across every experiment of a full sweep must be
// pairwise distinct.
func TestDerivedSeedsPairwiseDistinctAcrossAllExperiments(t *testing.T) {
	for _, master := range []uint64{2012, 0, ^uint64(0)} {
		seen := make(map[uint64]string)
		total := 0
		for _, plan := range allExperimentPlans(ExpConfig{Seed: master}) {
			for pi := range plan.Points {
				pt := &plan.Points[pi]
				cfg := plan.Config.withDefaults()
				for trial := 0; trial < pt.trials(cfg); trial++ {
					check := func(seed uint64, what string) {
						t.Helper()
						if prev, dup := seen[seed]; dup {
							t.Fatalf("master %d: seed %#x derived for both %s and %s",
								master, seed, prev, what)
						}
						seen[seed] = what
						total++
					}
					check(pt.graphSeed(cfg, trial), fmt.Sprintf("%s graph trial %d", pt.Key, trial))
					for ai := range pt.Arms {
						check(pt.armSeed(cfg, ai, trial),
							fmt.Sprintf("%s arm %s trial %d", pt.Key, pt.Arms[ai].Name, trial))
					}
				}
			}
		}
		if total < 500 {
			t.Fatalf("master %d: only %d seeds enumerated — registry incomplete?", master, total)
		}
	}
}

// The old ExpProcessComparison derivation
// `cfg.Seed^uint64(fi)<<8|uint64(pi)` ORed the process index into the
// final seed, so with the CLIs' default master seed 2012 (bit 2 set)
// the torus family's "srw" (pi=0) and "rotor" (pi=4) batches shared a
// seed. Pin the collision and show the audited derivation keeps the
// same pair apart.
func TestLegacySeedMixingCollided(t *testing.T) {
	legacy := func(seed uint64, fi, pi int) uint64 { return seed ^ uint64(fi)<<8 | uint64(pi) }
	if legacy(2012, 0, 0) != legacy(2012, 0, 4) {
		t.Fatal("legacy expression no longer collides — test premise broken")
	}
	plan, _ := processComparisonPlan(ExpConfig{Seed: 2012}.withDefaults())
	cfg := plan.Config.withDefaults()
	torus := &plan.Points[0]
	if a, b := torus.armSeed(cfg, 0, 0), torus.armSeed(cfg, 4, 0); a == b {
		t.Fatalf("deriveSeed collided for srw vs rotor on the torus family (%#x)", a)
	}
}

func TestSaltAndDeriveSeedDistinctOnGrids(t *testing.T) {
	seen := make(map[uint64]bool)
	for ns := uint64(0); ns < 25; ns++ {
		for a := uint64(0); a < 20; a++ {
			for b := uint64(0); b < 20; b++ {
				s := Salt(ns, a, b)
				if seen[s] {
					t.Fatalf("Salt(%d,%d,%d) collided", ns, a, b)
				}
				seen[s] = true
			}
		}
	}
	// Salts of different arity must not alias either.
	if seen[Salt(1, 2)] || seen[Salt(1)] {
		t.Fatal("arity aliasing in Salt")
	}
	derived := make(map[uint64]bool)
	for master := uint64(0); master < 8; master++ {
		for salt := uint64(0); salt < 32; salt++ {
			for trial := uint64(0); trial < 16; trial++ {
				d := deriveSeed(master, salt, trial)
				if derived[d] {
					t.Fatalf("deriveSeed(%d,%d,%d) collided", master, salt, trial)
				}
				derived[d] = true
			}
		}
	}
}

// A failing point must not mask other points' failures: every error
// surfaces through errors.Join.
func TestSweepErrorAggregationAcrossPoints(t *testing.T) {
	okGraph := regularFactory(30, 4)
	boom := func(msg string) GraphFactory {
		return func(*rand.Rand) (*graph.Graph, error) { return nil, errors.New(msg) }
	}
	plan := &SweepPlan{
		Config: Config{Seed: 1, Trials: 2, Workers: 4},
		Points: []PointSpec{
			{Key: "good", Salt: Salt(1), Graph: okGraph, Arms: []Arm{eprocessArmV("e", nil)}},
			{Key: "bad-a", Salt: Salt(2), Graph: boom("kaboom-alpha"), Arms: []Arm{eprocessArmV("e", nil)}},
			{Key: "bad-b", Salt: Salt(3), Graph: boom("kaboom-beta"), Arms: []Arm{eprocessArmV("e", nil)}},
		},
	}
	_, err := plan.Run()
	if err == nil {
		t.Fatal("failing points did not error")
	}
	for _, want := range []string{"kaboom-alpha", "kaboom-beta", `point "bad-a"`, `point "bad-b"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error missing %q:\n%v", want, err)
		}
	}
	// Arm errors carry the point, trial and arm identity.
	plan = &SweepPlan{
		Config: Config{Seed: 1, Trials: 1},
		Points: []PointSpec{{Key: "tiny", Salt: Salt(4), Graph: okGraph,
			MaxSteps: 1, Arms: []Arm{srwArmV("srw")}}},
	}
	if _, err := plan.Run(); err == nil || !strings.Contains(err.Error(), `point "tiny" trial 0 arm "srw"`) {
		t.Errorf("arm error lacks identity: %v", err)
	}
}

// Every arm of a trial must receive the same frozen graph instance, and
// the point's Rep must be literally trial 0's graph.
func TestSweepSharesOneFrozenGraphPerTrial(t *testing.T) {
	const trials = 3
	var mu sync.Mutex
	got := make(map[int][]*graph.Graph) // trial -> graph per arm
	spy := func(name string) Arm {
		return Arm{Name: name, Run: func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
			if !g.Frozen() {
				t.Errorf("arm %s trial %d: graph not frozen", name, trial)
			}
			mu.Lock()
			got[trial] = append(got[trial], g)
			mu.Unlock()
			return Measurement{}, nil
		}}
	}
	plan := &SweepPlan{
		Config: Config{Seed: 7, Trials: trials, Workers: 4},
		Points: []PointSpec{{Key: "spy", Salt: Salt(9), Graph: regularFactory(24, 4),
			Arms: []Arm{spy("a"), spy("b"), spy("c")}}},
	}
	points, err := plan.Run()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < trials; trial++ {
		gs := got[trial]
		if len(gs) != 3 {
			t.Fatalf("trial %d: %d arm calls", trial, len(gs))
		}
		if gs[0] != gs[1] || gs[1] != gs[2] {
			t.Errorf("trial %d: arms saw different graph instances", trial)
		}
	}
	if got[0][0] == got[1][0] {
		t.Error("distinct trials shared a graph instance")
	}
	if points[0].Rep != got[0][0] {
		t.Error("Rep is not the literal trial-0 graph")
	}
}

// The sweep's tables must be byte-identical across Workers settings:
// every experiment is a pure function of the master seed.
func TestAllExperimentTablesWorkerInvariant(t *testing.T) {
	render := func(tb *Table) string {
		var buf bytes.Buffer
		if err := tb.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	exps := Registry()
	if testing.Short() {
		exps = exps[:6]
	}
	for _, e := range exps {
		run := func(workers int) *Result {
			t.Helper()
			res, err := e.Run(context.Background(), ExpConfig{Seed: 77, Trials: 2, Scale: 1, Workers: workers}, RunOptions{})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", e.Name, workers, err)
			}
			return res
		}
		serial, parallel := run(1), run(8)
		if a, b := render(serial.Table), render(parallel.Table); a != b {
			t.Errorf("%s: table differs between Workers=1 and Workers=8:\n--- serial ---\n%s--- parallel ---\n%s", e.Name, a, b)
		}
	}
}

func TestFigure1WorkerInvariant(t *testing.T) {
	cfg := Figure1Config{Degrees: []int{3, 4}, Ns: []int{100, 200}, Trials: 2, Seed: 5}
	cfg.Workers = 1
	a, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	b, err := Figure1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("series count differs")
	}
	for i := range a {
		if len(a[i].Points) != len(b[i].Points) {
			t.Fatalf("d=%d: point count differs", a[i].Degree)
		}
		for j := range a[i].Points {
			if a[i].Points[j] != b[i].Points[j] {
				t.Errorf("d=%d point %d differs across worker counts: %+v vs %+v",
					a[i].Degree, j, a[i].Points[j], b[i].Points[j])
			}
		}
	}
}

// Property test for the point-level shard partition — the unit-space
// analogue of cmd/sweep's experiment-level shardSelect guarantee: for
// random plan shapes and every m ≤ 8, the blocks PlanShard(0..m-1)
// cover each (point, trial) unit exactly once, contiguously, in
// canonical order, with no overlap, and balanced to within one unit.
func TestPlanShardPartitionsUnitSpace(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	var plans []*SweepPlan
	for it := 0; it < 40; it++ {
		plan := &SweepPlan{Config: Config{Trials: 1 + rnd.Intn(6)}}
		points := 1 + rnd.Intn(9)
		for p := 0; p < points; p++ {
			ps := PointSpec{
				Key:   fmt.Sprintf("pt%d", p),
				Salt:  Salt(uint64(2000+it), uint64(p)),
				Graph: regularFactory(8, 3),
			}
			if rnd.Intn(2) == 0 {
				ps.Trials = 1 + rnd.Intn(7) // mix per-point overrides with the plan default
			}
			plan.Points = append(plan.Points, ps)
		}
		plans = append(plans, plan)
	}
	// Every registered experiment's real plan is subject to the same
	// property.
	plans = append(plans, allExperimentPlans(ExpConfig{Seed: 3})...)
	for pi, plan := range plans {
		total := plan.UnitCount()
		if got := len(plan.unitList(plan.Config.withDefaults())); got != total {
			t.Fatalf("plan %d: UnitCount %d but unitList has %d entries", pi, total, got)
		}
		for m := 1; m <= 8; m++ {
			prev := 0
			for i := 0; i < m; i++ {
				lo, hi, err := plan.PlanShard(i, m)
				if err != nil {
					t.Fatalf("plan %d: PlanShard(%d, %d): %v", pi, i, m, err)
				}
				if lo != prev {
					t.Fatalf("plan %d m=%d: shard %d starts at %d, previous ended at %d (gap or overlap)", pi, m, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("plan %d m=%d: shard %d is [%d, %d)", pi, m, i, lo, hi)
				}
				if size := hi - lo; size < total/m || size > total/m+1 {
					t.Errorf("plan %d m=%d: shard %d holds %d units, want %d or %d", pi, m, i, size, total/m, total/m+1)
				}
				prev = hi
			}
			if prev != total {
				t.Fatalf("plan %d m=%d: shards cover %d of %d units", pi, m, prev, total)
			}
		}
	}
	for _, bad := range [][2]int{{0, 0}, {-1, 2}, {2, 2}, {5, 4}, {0, -1}} {
		if _, _, err := plans[0].PlanShard(bad[0], bad[1]); err == nil {
			t.Errorf("PlanShard(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

// Trials overrides on a point must bound both execution and seed
// enumeration.
func TestPointTrialsOverride(t *testing.T) {
	calls := 0
	plan := &SweepPlan{
		Config: Config{Seed: 3, Trials: 5, Workers: 1},
		Points: []PointSpec{{Key: "once", Salt: Salt(5), Graph: regularFactory(20, 4), Trials: 1,
			Arms: []Arm{{Name: "count", Run: func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (Measurement, error) {
				calls++
				return Measurement{}, nil
			}}}}},
	}
	if _, err := plan.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("arm ran %d times, want 1", calls)
	}
	if n := len(plan.Seeds()); n != 2 { // 1 graph seed + 1 arm seed
		t.Fatalf("Seeds() = %d entries, want 2", n)
	}
}

// Arm.RunBatch is ignored by the runner (it stays declared only for
// source compatibility; see BatchArmFunc): an arm whose RunBatch
// panics must still run through Run and give exactly Run's bytes.
func TestRunnerIgnoresRunBatch(t *testing.T) {
	panicBatch := func([]*graph.Graph, []*rng.Rand, *walk.Batch, int64) ([]Measurement, []error) {
		panic("the runner called Arm.RunBatch")
	}
	e, ok := Lookup("scalecover")
	if !ok {
		t.Fatal("scalecover not registered")
	}
	encode := func(install bool) []byte {
		plan, finish, err := e.Plan(ExpConfig{Seed: 2012, Trials: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for pi := range plan.Points {
			for ai := range plan.Points[pi].Arms {
				if install {
					plan.Points[pi].Arms[ai].RunBatch = panicBatch
				}
			}
		}
		points, err := plan.Run()
		if err != nil {
			t.Fatal(err)
		}
		res, err := finish(points)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if want, got := encode(false), encode(true); !bytes.Equal(got, want) {
		t.Errorf("plan with RunBatch installed differs from Run-only plan:\n--- Run ---\n%s--- with RunBatch ---\n%s", want, got)
	}
}
