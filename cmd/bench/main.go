// Command bench runs the walk engine's step benchmarks in-process (via
// testing.Benchmark, no `go test` invocation needed) and writes a
// machine-readable JSON report, so the per-step cost of the walk engine
// is tracked as an artifact (BENCH_1.json ... BENCH_6.json) rather than
// scattered across PR descriptions. The report holds the five step
// benchmarks, SimpleStep among them as the host-speed control, and the
// kernel rows: the Uniform cover kernel against the sequential reuse
// loop at each -batch-n size.
//
// End-to-end numbers (registry wall time, reprod latency, per-layer
// metrics) come from the perfbench module, not from here; benchmarks of
// single functions (footprint, overlay churn) live in their packages'
// tests.
//
// Usage:
//
//	go run ./cmd/bench -o BENCH_1.json [-n 10000] [-d 4] [-cover-n 5000] [-batch-n 2000,5000]
//
// -compare <baseline.json> switches to A/B mode: instead of writing a
// report it re-runs the step benchmarks in interleaved rounds (every
// bench sampled once per round, min-of-rounds reported) and prints
// per-benchmark deltas against the baseline report, using SimpleStep —
// untouched by any engine change — as the host-speed control; a
// baseline without the step benchmarks or SimpleStep exits 1.
// -cpuprofile / -memprofile write pprof profiles of either mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

// BenchResult is one benchmark's outcome in the JSON report.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// KernelResult is one graph size of the kernel section: the Uniform
// cover kernel (CoverScratch.UniformVertexCover) against the sequential
// reuse loop (e.Reset + shared CoverScratch — the fastest Process-driver
// shape, a stricter bar than fresh construction) on the same frozen
// graph; -batch-n lists the sizes, spanning the scalecover points that
// fit CI time. Both contenders stream one identically seeded generator
// through successive covers, so they walk the very same trajectories,
// and are timed in interleaved rounds (each sampled once per round, min
// of rounds) so slow host drift hits them alike — the same methodology
// as -compare mode. Before timing, the kernel's outcome on several
// seeds is checked identical to a fresh EProcess run with the same
// generator seed; the speedup is only ever reported for a kernel proven
// draw-for-draw equivalent in the same process.
type KernelResult struct {
	N                  int     `json:"n"`
	Degree             int     `json:"degree"`
	Rounds             int     `json:"rounds"`
	SeqNsPerCover      float64 `json:"seq_ns_per_cover"`
	SeqCoversPerSec    float64 `json:"seq_covers_per_sec"`
	KernelNsPerCover   float64 `json:"kernel_ns_per_cover"`
	KernelCoversPerSec float64 `json:"kernel_covers_per_sec"`
	Speedup            float64 `json:"speedup"` // kernel vs sequential
}

// Report is the top-level JSON document.
type Report struct {
	GoVersion  string         `json:"go_version"`
	GOARCH     string         `json:"goarch"`
	GOOS       string         `json:"goos"`
	NumCPU     int            `json:"num_cpu"`
	Benchmarks []BenchResult  `json:"benchmarks"`
	Kernel     []KernelResult `json:"kernel"`
}

// benchReps is how many times each benchmark is repeated; the reported
// result is the median by ns/op. A single testing.Benchmark sample on
// a shared host wobbles ±10%, which is enough to blur a real layout
// win; the median of several runs is what the perf trajectory compares
// (set by -reps).
var benchReps = 5

func run(name string, f func(b *testing.B)) BenchResult {
	results := make([]testing.BenchmarkResult, 0, benchReps)
	for i := 0; i < benchReps; i++ {
		results = append(results, testing.Benchmark(f))
	}
	sort.Slice(results, func(i, j int) bool {
		return float64(results[i].T.Nanoseconds())/float64(results[i].N) <
			float64(results[j].T.Nanoseconds())/float64(results[j].N)
	})
	r := results[len(results)/2]
	return BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// namedBench is one entry of the step-benchmark list, shared by the
// report mode (median of benchReps, matching every earlier BENCH_N
// file) and -compare mode (interleaved rounds, min).
type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// stepBenches is the frozen hot-path list every BENCH_N report carries.
// Order matters to -compare's interleaving: one round samples each
// entry once, in order, so consecutive samples of the same benchmark
// are separated by the whole list and slow host drift is spread across
// all of them instead of biasing whichever ran last.
func stepBenches(stepGraph, coverGraph *graph.Graph) []namedBench {
	return []namedBench{
		{"EProcessStep", func(b *testing.B) {
			e := walk.NewEProcess(stepGraph, rng.NewXoshiro256(2), nil, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		}},
		{"EProcessStepMathRand", func(b *testing.B) {
			e := walk.NewEProcess(stepGraph, rand.New(rand.NewSource(2)), nil, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		}},
		{controlBench, func(b *testing.B) {
			w := walk.NewSimple(stepGraph, rng.NewXoshiro256(4), 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
			}
		}},
		{"EProcessFullVertexCover", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := walk.NewEProcess(coverGraph, rng.NewXoshiro256(uint64(i)), nil, 0)
				if _, err := walk.VertexCoverSteps(e, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"EProcessFullVertexCoverReuse", func(b *testing.B) {
			e := walk.NewEProcess(coverGraph, rng.NewXoshiro256(11), nil, 0)
			var sc walk.CoverScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset(0)
				if _, err := sc.VertexCoverSteps(e, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// controlBench is the step benchmark no engine change touches; -compare
// reads its movement as host drift.
const controlBench = "SimpleStep"

// runInterleaved samples every benchmark once per round, in list order,
// and reports each one's minimum ns/op round. Min-of-interleaved-rounds
// is the A/B methodology: the minimum strips slow one-sided noise
// (host contention hits some rounds, never all), and interleaving
// guarantees the compared benchmarks sample the same noise epochs.
func runInterleaved(benches []namedBench, rounds int) []BenchResult {
	out := make([]BenchResult, len(benches))
	for i, nb := range benches {
		out[i] = BenchResult{Name: nb.name, NsPerOp: math.Inf(1)}
	}
	for round := 0; round < rounds; round++ {
		for i, nb := range benches {
			r := testing.Benchmark(nb.fn)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if ns < out[i].NsPerOp {
				out[i] = BenchResult{
					Name:        nb.name,
					Iterations:  r.N,
					NsPerOp:     ns,
					BytesPerOp:  r.AllocedBytesPerOp(),
					AllocsPerOp: r.AllocsPerOp(),
				}
			}
		}
	}
	return out
}

// kernelGateSeeds is how many generator seeds the kernel section's
// equivalence gate checks against fresh EProcess runs.
const kernelGateSeeds = 8

// benchKernel measures the Uniform cover kernel against the sequential
// reuse loop on one frozen graph. It first proves, in this process,
// that the kernel reproduces EProcess's exact outcome for several
// seeds, then times both in interleaved min-of-rounds.
func benchKernel(n, d, rounds int) KernelResult {
	g := mustRegular(n, d, 9)
	g.Freeze()

	var sc walk.CoverScratch
	for s := uint64(100); s < 100+kernelGateSeeds; s++ {
		got, err := sc.UniformVertexCover(g, rng.NewXoshiro256(s), 0, 0)
		if err != nil {
			panic(fmt.Sprintf("bench kernel: seed %d: %v", s, err))
		}
		want, err := walk.VertexCoverSteps(walk.NewEProcess(g, rng.NewXoshiro256(s), nil, 0), 0)
		if err != nil {
			panic(fmt.Sprintf("bench kernel: sequential seed %d: %v", s, err))
		}
		if got != want {
			panic(fmt.Sprintf("bench kernel: seed %d diverges: kernel %d steps, sequential %d", s, got, want))
		}
	}

	timed := runInterleaved([]namedBench{
		{"seq", func(b *testing.B) {
			e := walk.NewEProcess(g, rng.NewXoshiro256(11), nil, 0)
			var sc walk.CoverScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset(0)
				if _, err := sc.VertexCoverSteps(e, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"kernel", func(b *testing.B) {
			x := rng.NewXoshiro256(11)
			var sc walk.CoverScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sc.UniformVertexCover(g, x, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}, rounds)
	res := KernelResult{
		N:                n,
		Degree:           d,
		Rounds:           rounds,
		SeqNsPerCover:    timed[0].NsPerOp,
		KernelNsPerCover: timed[1].NsPerOp,
	}
	res.SeqCoversPerSec = 1e9 / res.SeqNsPerCover
	res.KernelCoversPerSec = 1e9 / res.KernelNsPerCover
	res.Speedup = res.SeqNsPerCover / res.KernelNsPerCover
	return res
}

// loadBaseline reads a baseline report's step benchmarks by name. A
// file without them — a perfbench-format BENCH_<k>.json, say — or
// without the SimpleStep control is an error naming the file, so
// -compare never prints a drift verdict it did not measure.
func loadBaseline(path string) (map[string]BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no step benchmarks (not a cmd/bench report)", path)
	}
	byName := make(map[string]BenchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	if byName[controlBench].NsPerOp <= 0 {
		return nil, fmt.Errorf("%s: no %s control benchmark", path, controlBench)
	}
	return byName, nil
}

// runCompare is -compare mode: re-run the step benchmarks interleaved
// and print deltas against a baseline report. SimpleStep is the
// control: no engine change touches it, so any movement there is host
// drift and the run says so instead of letting the other deltas
// masquerade as regressions or wins. Returns a process exit code.
func runCompare(benches []namedBench, baselinePath string, rounds int) int {
	baseBy, err := loadBaseline(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -compare:", err)
		return 1
	}

	now := runInterleaved(benches, rounds)
	fmt.Printf("compare vs %s (min of %d interleaved rounds)\n", baselinePath, rounds)
	const controlDriftPct = 5.0
	var controlDrift float64
	for _, b := range now {
		old, ok := baseBy[b.Name]
		if !ok || old.NsPerOp == 0 {
			fmt.Printf("  %-32s %12.2f ns/op        (not in baseline)\n", b.Name, b.NsPerOp)
			continue
		}
		delta := (b.NsPerOp/old.NsPerOp - 1) * 100
		fmt.Printf("  %-32s %12.2f ns/op  %12.2f ns/op  %+7.2f%%\n", b.Name, old.NsPerOp, b.NsPerOp, delta)
		if b.Name == controlBench {
			controlDrift = delta
		}
	}
	if math.Abs(controlDrift) > controlDriftPct {
		fmt.Printf("  WARNING: SimpleStep control moved %+.2f%% (>%.0f%%): host speed drifted since the baseline; absolute deltas above are unreliable\n",
			controlDrift, controlDriftPct)
	} else {
		fmt.Printf("  control: SimpleStep %+.2f%% (within %.0f%% noise)\n", controlDrift, controlDriftPct)
	}
	return 0
}

func mustRegular(n, d int, seed int64) *graph.Graph {
	g, err := gen.RandomRegularSW(rand.New(rand.NewSource(seed)), n, d)
	if err != nil {
		panic(err)
	}
	return g
}

func main() {
	out := flag.String("o", "BENCH_1.json", "output JSON path")
	n := flag.Int("n", 10000, "vertices for step benchmarks")
	d := flag.Int("d", 4, "degree for benchmark graphs")
	coverN := flag.Int("cover-n", 5000, "vertices for the full-cover step benchmarks")
	reps := flag.Int("reps", benchReps, "repetitions per benchmark (median reported)")
	batchNs := flag.String("batch-n", "2000,5000", "comma-separated graph sizes for the Uniform cover kernel section")
	compare := flag.String("compare", "", "baseline BENCH_*.json: print interleaved A/B deltas instead of writing a report")
	compareRounds := flag.Int("compare-rounds", 3, "interleaved rounds in -compare mode (min reported)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "bench: -reps must be at least 1")
		os.Exit(2)
	}
	benchReps = *reps
	var kernelNs []int
	for _, s := range strings.Split(*batchNs, ",") {
		bn, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || bn <= 0 {
			fmt.Fprintf(os.Stderr, "bench: bad -batch-n entry %q\n", s)
			os.Exit(2)
		}
		kernelNs = append(kernelNs, bn)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	// stopProfiles flushes both profiles; called on every exit path that
	// should produce them (os.Exit skips defers, so exits are explicit).
	stopProfiles := func() {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			f.Close()
		}
	}

	stepGraph := mustRegular(*n, *d, 1)
	coverGraph := mustRegular(*coverN, *d, 9)

	if *compare != "" {
		code := runCompare(stepBenches(stepGraph, coverGraph), *compare, *compareRounds)
		stopProfiles()
		os.Exit(code)
	}

	report := Report{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		GOOS:      runtime.GOOS,
		NumCPU:    runtime.NumCPU(),
	}
	for _, nb := range stepBenches(stepGraph, coverGraph) {
		report.Benchmarks = append(report.Benchmarks, run(nb.name, nb.fn))
	}
	for _, bn := range kernelNs {
		report.Kernel = append(report.Kernel, benchKernel(bn, *d, benchReps))
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	for _, b := range report.Benchmarks {
		fmt.Printf("  %-32s %12.2f ns/op %8d B/op %6d allocs/op\n", b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}
	for _, kr := range report.Kernel {
		fmt.Printf("  kernel n=%d d=%d: seq %.0f ns/cover, kernel %.0f ns/cover (%.2fx)\n",
			kr.N, kr.Degree, kr.SeqNsPerCover, kr.KernelNsPerCover, kr.Speedup)
	}
	stopProfiles()
}
