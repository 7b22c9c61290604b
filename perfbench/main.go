// Command perfbench is the repository's end-to-end benchmark: four
// seeded workloads, each run from one process, that time the paper's
// registry, its journaled runs, the reprod serving layer and the cover
// kernel from outside, through their public functions. BENCHMARK.json
// declares registry-journal and serve-mix; README.md says why the
// other two are run only by hand.
//
//	bash perfbench/run.sh --workload registry-journal --seed 3 --seconds 50 --trace 0
//
// Run it from the repository root: run.sh builds this module and runs
// it there, where it reads perfbench/digests.json and writes only under
// .bench_build.
//
// With --trace 0 the last stdout line holds the end-to-end metrics;
// with --trace 1 it holds the per-layer metrics of a traced run plus
// the tracing overhead. The line before it is a detail object with
// sample counts, tail percentiles and the per-class numbers. Every run
// checks its outputs (see README.md); a failed check is a failed
// operation and makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed whose outputs are pinned in digests.json.
const defaultSeed = 1

// env is one benchmark invocation: its inputs, its scratch directory
// and everything it reports.
type env struct {
	seed   uint64
	budget time.Duration
	traced bool
	tiny   bool
	dir    string // scratch directory, removed at exit

	// pins are the digests the outputs must match (nil: not checked);
	// digests collects the ones this run computed.
	pins    map[string]string
	digests map[string]string

	attempted, failed int64
	e2e               map[string]metric
	layer             map[string]metric
	detail            map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*env) error{
	"registry-s4":      registryS4,
	"registry-journal": registryJournal,
	"serve-mix":        serveMix,
	"cover-kernel":     coverKernel,
}

func main() {
	var (
		workload = flag.String("workload", "", "registry-s4, registry-journal, serve-mix or cover-kernel")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds  = flag.Float64("seconds", 20, "measuring time")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		pin      = flag.String("pin", "", "write this run's digests into the given file")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	// Pins hold the default seed's outputs, so only that seed may write them.
	if !ok || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*pin != "" && *seed != defaultSeed) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload W --seed N --seconds S --trace 0|1 [--pin FILE, default seed only]")
		os.Exit(2)
	}
	e, err := newEnv(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := e.run(fn)
	os.RemoveAll(e.dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if *pin != "" {
		if err := writePins(*pin, e.digests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	detail, _ := json.Marshal(map[string]any{"detail": e.detail})
	line, _ := json.Marshal(rep)
	fmt.Printf("%s\n%s\n", detail, line)
	if !rep.Correct {
		os.Exit(1)
	}
}

// newEnv prepares a run: scratch directory under .bench_build in the
// working directory, and the pinned digests when seed is the default.
// tiny shrinks every workload for the package's tests; its outputs are
// never checked against, nor written as, pins.
func newEnv(workload string, seed uint64, budget time.Duration, traced, tiny bool) (*env, error) {
	base, err := filepath.Abs(".bench_build")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-"+workload+"-")
	if err != nil {
		return nil, err
	}
	e := &env{
		seed: seed, budget: budget, traced: traced, tiny: tiny, dir: dir,
		digests: map[string]string{},
		e2e:     map[string]metric{}, layer: map[string]metric{}, detail: map[string]any{},
	}
	if seed == defaultSeed && !tiny {
		if e.pins, err = readPins(); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	return e, nil
}

// run executes the workload and checks that it reported exactly the
// metrics its mode promises.
func (e *env) run(fn func(*env) error) (report, error) {
	if err := fn(e); err != nil {
		return report{}, err
	}
	want, got := endToEnd, e.e2e
	if e.traced {
		want, got = perLayer, e.layer
	}
	for _, name := range sortedKeys(got) {
		if _, ok := want[name]; !ok {
			return report{}, fmt.Errorf("metric %q is not declared", name)
		}
	}
	for _, name := range sortedKeys(want) {
		m, ok := got[name]
		if !ok {
			return report{}, fmt.Errorf("metric %q was not measured", name)
		}
		if m.Unit != want[name] {
			return report{}, fmt.Errorf("metric %q has unit %q, want %q", name, m.Unit, want[name])
		}
	}
	e.detail["error_rate"] = float64(e.failed) / float64(max(e.attempted, 1))
	return report{Correct: e.failed == 0 && e.attempted > 0, Attempted: e.attempted, Failed: e.failed, Metrics: got}, nil
}

// op counts one attempted operation; a non-nil err fails it.
func (e *env) op(err error) {
	e.attempted++
	if err != nil {
		e.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}

// check counts one correctness gate.
func (e *env) check(ok bool, format string, args ...any) {
	if ok {
		e.op(nil)
		return
	}
	e.op(fmt.Errorf(format, args...))
}

// pinned records a digest under name and checks it against the pinned
// value, when pins are loaded. A name without a pin fails the check:
// the pinned set must cover every output it is meant to cover.
func (e *env) pinned(name, digest string) {
	if prev, ok := e.digests[name]; ok {
		e.check(prev == digest, "%s: digest changed between passes (%s, then %s)", name, prev, digest)
		return
	}
	e.digests[name] = digest
	if e.pins == nil {
		return
	}
	want, ok := e.pins[name]
	e.check(ok && want == digest, "%s: digest %s, pinned %q", name, digest, want)
}

func (e *env) setE2E(name string, v float64) { e.e2e[name] = metric{v, endToEnd[name]} }

func (e *env) setLayer(name string, v float64) { e.layer[name] = metric{v, perLayer[name]} }

// zeroLayers reports every per-layer metric the workload does not
// exercise as 0, so each traced run carries the full declared set.
func (e *env) zeroLayers() {
	for name, unit := range perLayer {
		if _, ok := e.layer[name]; !ok {
			e.layer[name] = metric{0, unit}
		}
	}
}

// peakRSS reports the process's peak resident set in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// repeat runs pass until another pass of the median length so far
// would overrun budget, and at least once. pass returns the time it
// measured, which may leave out its own preparation.
func repeat(budget time.Duration, pass func() (time.Duration, error)) ([]time.Duration, error) {
	start := time.Now()
	var walls []time.Duration
	for {
		runtime.GC() // every pass starts from a collected heap
		d, err := pass()
		if err != nil {
			return walls, err
		}
		walls = append(walls, d)
		if time.Since(start)+medianDur(walls) > budget {
			return walls, nil
		}
	}
}

// setupTimes runs setup k times and returns the median time; the last
// run's state is the one the workload keeps.
func setupTimes(k int, setup func() error) (time.Duration, error) {
	var ts []time.Duration
	for range k {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0))
	}
	return medianDur(ts), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mix64 is the SplitMix64 finalizer; workloads derive all their inputs
// from the --seed argument through it.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// derive returns the i-th input seed of a workload seed.
func derive(seed uint64, i int) uint64 {
	return mix64(seed*0x9e3779b97f4a7c15 + uint64(i) + 1)
}
