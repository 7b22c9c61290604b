package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/walk"
)

// The report runner must measure real work and produce well-formed
// entries without the overhead of a full-size run.
func TestRunProducesSaneResult(t *testing.T) {
	g := mustRegular(200, 4, 1)
	res := run("step", func(b *testing.B) {
		e := walk.NewEProcess(g, rng.NewXoshiro256(2), nil, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
	if res.Name != "step" || res.Iterations <= 0 || res.NsPerOp <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

// A Report must round-trip through JSON with the field names the perf
// trajectory tooling greps for.
func TestReportJSONShape(t *testing.T) {
	rep := Report{
		GoVersion:  "go1.24",
		Benchmarks: []BenchResult{{Name: "EProcessStep", Iterations: 1, NsPerOp: 12.5}},
		Kernel:     []KernelResult{{N: 100, Degree: 4, Rounds: 2, KernelNsPerCover: 250}},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var back Report
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Benchmarks[0].Name != "EProcessStep" || back.Kernel[0].KernelNsPerCover != 250 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	for _, key := range []string{"ns_per_op", "allocs_per_op", "kernel_ns_per_cover"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("serialized report missing %q", key)
		}
	}
}

// mustRegular must stay deterministic: the benchmarks compare runs.
func TestMustRegularDeterministic(t *testing.T) {
	a, b := mustRegular(60, 4, 7), mustRegular(60, 4, 7)
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatal("edge counts differ for equal seeds")
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// -compare's baseline must carry every step benchmark by name, and a
// file without them (BENCH_7.json is a perfbench-format report) must be
// an error rather than a run whose control reports no drift.
func TestLoadBaseline(t *testing.T) {
	base, err := loadBaseline(filepath.Join("..", "..", "BENCH_6.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range stepBenches(nil, nil) {
		if b, ok := base[nb.name]; !ok || b.NsPerOp <= 0 {
			t.Errorf("BENCH_6.json: step benchmark %q missing", nb.name)
		}
	}

	path := filepath.Join("..", "..", "BENCH_7.json")
	if _, err := loadBaseline(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("loadBaseline(BENCH_7.json) = %v, want an error naming the file", err)
	}
	noControl := filepath.Join(t.TempDir(), "nocontrol.json")
	data, err := json.Marshal(Report{Benchmarks: []BenchResult{{Name: "EProcessStep", NsPerOp: 12.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(noControl, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(noControl); err == nil || !strings.Contains(err.Error(), controlBench) {
		t.Errorf("baseline without %s: err = %v, want an error naming the control", controlBench, err)
	}
}
