package main

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sim"
)

// runTiny runs one workload at tiny sizes in a fresh directory, with
// pins when non-nil.
func runTiny(t *testing.T, workload string, traced bool, pins map[string]string) (*env, report) {
	t.Helper()
	e, err := newEnv(workload, 7, 500*time.Millisecond, traced, true)
	if err != nil {
		t.Fatal(err)
	}
	e.pins = pins
	rep, err := e.run(workloads[workload])
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return e, rep
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			_, rep := runTiny(t, w, traced, nil)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := rep.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, name, m, unit)
				}
			}
			if !traced {
				for name, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

func TestCorruptedPinFails(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range []string{"registry-s4", "cover-kernel"} {
		e, _ := runTiny(t, w, false, nil)
		if len(e.digests) == 0 {
			t.Fatalf("%s: no digests computed", w)
		}
		if _, rep := runTiny(t, w, false, e.digests); !rep.Correct {
			t.Fatalf("%s: run against its own digests failed", w)
		}
		bad := map[string]string{}
		for k, v := range e.digests {
			bad[k] = v
		}
		name := sortedKeys(bad)[0]
		bad[name] = "x" + bad[name]
		if _, rep := runTiny(t, w, false, bad); rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: corrupted pin %s was accepted", w, name)
		}
	}
}

// TestPlanWrappersKeepResultBytes runs every experiment through the
// instrumented plan path, plain and journaled, and compares the bytes
// with Experiment.Run's.
func TestPlanWrappersKeepResultBytes(t *testing.T) {
	dir := t.TempDir()
	cfg := sim.ExpConfig{Seed: 11, Trials: 2, Workers: 2}
	for _, x := range sim.Registry() {
		want, err := runExperiment(nil, "exp", x, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := runExperiment(tr, "exp", x, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: traced Result bytes differ", x.Name)
		}
		if calls, _ := tr.sum("gen"); calls == 0 {
			t.Errorf("%s: no graph builds traced", x.Name)
		}
		checkWalkUnits(t, x.Name, tr)
		ck := &sim.Checkpoint{Dir: filepath.Join(dir, x.Name)}
		if got, err = runExperiment(tr, "exp", x, cfg, ck); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: traced journaled Result differs (err %v)", x.Name, err)
		}
		ck.Resume = true
		if got, err = runExperiment(nil, "exp", x, cfg, ck); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: resumed Result differs (err %v)", x.Name, err)
		}
	}
}

// checkWalkUnits checks that every walk span names the units of the
// graphs it walked: each one a unit some graph build was traced under.
func checkWalkUnits(t *testing.T, name string, tr *tracer) {
	t.Helper()
	built := map[int64]bool{}
	for _, s := range tr.spans {
		if s.Name == "gen" {
			built[s.Unit] = true
		}
	}
	for _, s := range tr.spans {
		if s.Name != "walk" {
			continue
		}
		if !built[s.Unit] || (len(s.Units) > 0 && s.Units[0] != s.Unit) {
			t.Errorf("%s: walk span %d has unit %d (units %v), not one of a traced graph build", name, s.ID, s.Unit, s.Units)
		}
		for _, u := range s.Units {
			if !built[u] {
				t.Errorf("%s: batched walk span %d lists unit %d, not one of a traced graph build", name, s.ID, u)
			}
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "gen", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "walk", Start: 30, End: 60},  // overlaps gen
		{ID: 3, Parent: 0, Name: "walk", Start: 90, End: 120}, // runs past its parent
	}}
	if got := tr.selfNs("run"); got != 100-50-10 {
		t.Errorf("run self = %d, want 40", got)
	}
	if got := tr.selfNs("walk"); got != 60 {
		t.Errorf("walk self = %d, want 60", got)
	}
}

func TestHistQuantilesWithinBucket(t *testing.T) {
	var a, b hist
	for i := 1; i <= 1000; i++ {
		a.add(float64(i))
		b.add(float64(1000 + i))
	}
	a.merge(&b)
	for _, c := range []struct{ q, want float64 }{{0.5, 1000}, {0.99, 1980}, {0.001, 2}} {
		if got := a.quantile(c.q); math.Abs(got/c.want-1) > 0.005 {
			t.Errorf("quantile(%g) = %g, want %g within 0.5%%", c.q, got, c.want)
		}
	}
	if s := a.summary(); s.N != 2000 || s.Tail != "p99" || a.sum != 2001000 {
		t.Errorf("summary %+v, sum %g", s, a.sum)
	}
}
