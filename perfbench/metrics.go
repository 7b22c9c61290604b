package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"time"
)

// endToEnd is the end-to-end metric set every workload reports with
// --trace 0 (name → unit). README.md defines each one per workload.
var endToEnd = map[string]string{
	"wall_s":           "s",
	"setup_s":          "s",
	"throughput_per_s": "1/s",
	"latency_us":       "us",
	"peak_rss_mb":      "MiB",
}

// experimentNames are the registry experiments with their own
// exp.<name>.* per-layer metrics and pinned digests. The registry
// workloads run every registered experiment; one missing from this list
// is still run and timed in the totals.
var experimentNames = []string{
	"thm1", "radzik", "cor2", "eq3", "thm3", "cor4", "hcube", "star",
	"rulea", "p1p2", "grw", "compare", "ablation", "growth", "bias", "eq4",
	"lemma13", "phases", "degseq", "fig1", "scalecover", "pcfcover", "churncover",
}

// coverRules and coverSizes name the cover-kernel schedule's
// walk.<rule>.<n>.* metrics.
var (
	coverRules = []string{"uniform", "lowest", "srw"}
	coverSizes = []int{20000, 200000}
)

// perLayer is the per-layer metric set every workload reports with
// --trace 1 (name → unit); layers a workload does not exercise read 0.
var perLayer = layerMetrics()

func layerMetrics() map[string]string {
	m := map[string]string{
		"gen.calls":               "count",
		"gen.edges":               "count",
		"gen.busy_s":              "s",
		"gen.ns_per_edge":         "ns",
		"graph.freeze_busy_s":     "s",
		"walk.calls":              "count",
		"walk.steps":              "count",
		"walk.busy_s":             "s",
		"walk.ns_per_step":        "ns",
		"analysis.busy_s":         "s",
		"sim.plan_busy_s":         "s",
		"sim.units":               "count",
		"sim.pool_unattributed_s": "s",
		"sim.encode_busy_s":       "s",
		"sim.encode_bytes":        "bytes",
		"journal.files":           "count",
		"journal.bytes":           "bytes",
		"journal.overhead_s":      "s",
		"serve.requests.hit":      "count",
		"serve.requests.disk":     "count",
		"serve.requests.miss":     "count",
		"serve.requests.join":     "count",
		"serve.requests.invalid":  "count",
		"serve.handler_hit_us":    "us",
		"http.transport_us":       "us",
		"serve.run_s":             "s",
		"serve.cold_run_share":    "ratio",
		"serve.spill_writes":      "count",
		"serve.disk_hits":         "count",
		"serve.boot_spills":       "count",
		"serve.bytes_out":         "bytes",
		"trace.overhead_pct":      "%",
	}
	for _, r := range coverRules {
		for _, n := range coverSizes {
			m[fmt.Sprintf("walk.%s.%d.ns_per_step", r, n)] = "ns"
		}
		m["walk."+r+".alloc_bytes_per_cover"] = "bytes"
	}
	for _, x := range experimentNames {
		m["exp."+x+".wall_s"] = "s"
		m["exp."+x+".finish_s"] = "s"
	}
	return m
}

// pinsFile holds the digests of the default seed's outputs; the
// benchmark runs from the repository root.
const pinsFile = "perfbench/digests.json"

func readPins() (map[string]string, error) {
	data, err := os.ReadFile(pinsFile)
	if err != nil {
		return nil, fmt.Errorf("pinned digests: %w", err)
	}
	var pins map[string]string
	if err := json.Unmarshal(data, &pins); err != nil {
		return nil, fmt.Errorf("pinned digests %s: %w", pinsFile, err)
	}
	return pins, nil
}

// writePins merges digests into the file at path.
func writePins(path string, digests map[string]string) error {
	pins := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &pins); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range digests {
		pins[k] = v
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func medianDur(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// summary is a timing as the benchmark reports it: the median, the
// highest listed percentile with at least ten samples beyond it, and
// the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"p50"`
	Tail   string  `json:"tail,omitempty"`
	TailV  float64 `json:"tail_value,omitempty"`
}

func summarize(xs []float64) summary {
	return summarizeBy(len(xs), func(q float64) float64 { return quantile(xs, q) })
}

// summarizeBy builds the summary of n samples from their quantiles.
func summarizeBy(n int, quantile func(q float64) float64) summary {
	s := summary{N: n}
	if n == 0 {
		return s
	}
	s.Median = quantile(0.5)
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			s.Tail, s.TailV = fmt.Sprintf("p%g", p), quantile(p/100)
			break
		}
	}
	return s
}

// scaled returns the summary with its values multiplied by f.
func (s summary) scaled(f float64) summary {
	s.Median *= f
	s.TailV *= f
	return s
}

// hist counts positive samples in logarithmic buckets 0.5% wide, so its
// quantiles are within 0.5% and it keeps a fixed amount of memory
// however many samples a run records. serve-mix records its request
// latencies in it: keeping every sample, the process grew with the
// number of requests a run fitted in, and peak_rss_mb with it.
type hist struct {
	counts map[int]int
	n      int
	sum    float64
}

const histStep = 1.005

func (h *hist) add(x float64) {
	if h.counts == nil {
		h.counts = map[int]int{}
	}
	h.counts[int(math.Floor(math.Log(max(x, 1e-9))/math.Log(histStep)))]++
	h.n++
	h.sum += x
}

func (h *hist) merge(o *hist) {
	if h.counts == nil {
		h.counts = map[int]int{}
	}
	for k, c := range o.counts {
		h.counts[k] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the geometric middle of the bucket that holds the
// q-quantile (nearest rank).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := max(int(math.Ceil(q*float64(h.n))), 1)
	cum := 0
	keys := slices.Sorted(maps.Keys(h.counts))
	for _, k := range keys {
		if cum += h.counts[k]; cum >= rank {
			return math.Pow(histStep, float64(k)+0.5)
		}
	}
	return math.Pow(histStep, float64(keys[len(keys)-1])+0.5)
}

func (h *hist) summary() summary { return summarizeBy(h.n, h.quantile) }

func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
