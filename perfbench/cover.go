package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/rng"
)

// coverJob is one cover of the cover-kernel schedule.
type coverJob struct {
	rule string // "uniform", "lowest" or "srw"
	size int    // index into the workload's graphs
	seed uint64
}

// coverCounts is how many covers of each rule one pass runs on the
// small (in-L2) and the large graph. The small Uniform cover is the
// most frequent: its median latency is the workload's latency_us.
var coverCounts = map[string][2]int{"uniform": {24, 4}, "lowest": {8, 2}, "srw": {4, 2}}

// coverKernel generates two fixed 4-regular graphs during set-up, one
// below and one above the host's L2, and runs a fixed schedule of
// public-API covers on them: the Uniform E-process (fused path), the
// LowestEdgeFirst E-process (generic Rule path) and the SRW vertex
// cover as the control.
func coverKernel(e *env) error {
	sizes := coverSizes
	if e.tiny {
		sizes = []int{2000, 20000}
	}
	graphs := make([]*repro.Graph, len(sizes))
	var tr *tracer
	if e.traced {
		tr = newTracer()
	}
	const setups = 5
	setup, err := setupTimes(setups, func() error {
		for i, n := range sizes {
			s := tr.begin("gen", -1, int64(i))
			g, err := repro.RandomRegularSW(rand.New(repro.NewSource(repro.KindXoshiro, derive(e.seed, 10+i))), n, 4)
			if err != nil {
				return fmt.Errorf("generate n=%d: %w", n, err)
			}
			tr.end(s, int64(g.M()))
			s = tr.begin("freeze", -1, int64(i))
			g.Freeze()
			tr.end(s, 0)
			graphs[i] = g
		}
		return nil
	})
	if err != nil {
		return err
	}
	var jobs []coverJob
	for _, rule := range coverRules {
		for size, count := range coverCounts[rule] {
			for range count {
				jobs = append(jobs, coverJob{rule, size, derive(e.seed, 100+len(jobs))})
			}
		}
	}

	var uniformSmall []float64 // µs per small-graph Uniform cover
	var stepsPerPass int64
	jobTimes := make([][]time.Duration, len(jobs))
	allocs := map[string]uint64{} // bytes allocated per rule, traced passes only
	// Span names are built once and a traced cover's span is recorded
	// after the second memory-statistics read, so the cover is charged
	// only its own allocations.
	names := make([]string, len(jobs))
	for ji, j := range jobs {
		names[ji] = fmt.Sprintf("walk.%s.%d", j.rule, coverSizes[j.size])
	}
	pass := func(tr *tracer) (time.Duration, error) {
		steps := map[string]int64{}
		var wall time.Duration
		var before, after runtime.MemStats
		for ji, j := range jobs {
			if tr != nil {
				runtime.ReadMemStats(&before)
			}
			t0 := time.Now()
			n, err := cover(j, graphs[j.size])
			d := time.Since(t0)
			if tr != nil {
				runtime.ReadMemStats(&after)
				allocs[j.rule] += after.TotalAlloc - before.TotalAlloc
				tr.add(names[ji], -1, int64(ji), t0, d, n)
			}
			wall += d
			e.op(err)
			steps[names[ji]] += n
			if tr == nil {
				jobTimes[ji] = append(jobTimes[ji], d)
			}
			if j.rule == "uniform" && j.size == 0 {
				uniformSmall = append(uniformSmall, float64(d)/1e3)
			}
		}
		stepsPerPass = 0
		for _, name := range sortedKeys(steps) {
			stepsPerPass += steps[name]
			e.pinned("cover-kernel/"+name, fmt.Sprint(steps[name]))
		}
		return wall, nil
	}
	budget := e.budget
	if e.traced {
		budget /= 2
	}
	walls, err := repeat(budget, func() (time.Duration, error) { return pass(nil) })
	if err != nil {
		return err
	}
	// The schedule's time sums each cover's median over the passes, so a
	// burst of contention on the host moves one sample, not the result.
	var schedule time.Duration
	for _, ts := range jobTimes {
		schedule += medianDur(ts)
	}
	e.detail["pass_s"] = summarize(durs(walls, time.Second))
	e.detail["schedule_s"] = schedule.Seconds()
	e.detail["uniform_cover_us"] = summarize(uniformSmall)
	e.detail["steps_per_pass"] = stepsPerPass
	e.detail["steps_per_s"] = float64(stepsPerPass) / schedule.Seconds()
	e.detail["sizes"] = sizes
	if !e.traced {
		e.setE2E("wall_s", schedule.Seconds())
		e.setE2E("setup_s", setup.Seconds())
		e.setE2E("throughput_per_s", float64(stepsPerPass)/schedule.Seconds())
		e.setE2E("latency_us", quantile(uniformSmall, 0.5))
		e.setE2E("peak_rss_mb", peakRSS())
		return nil
	}

	twalls, err := repeat(budget, func() (time.Duration, error) { return pass(tr) })
	if err != nil {
		return err
	}
	k := float64(len(twalls))
	e.setLayer("trace.overhead_pct", 100*(medianDur(twalls).Seconds()/medianDur(walls).Seconds()-1))
	e.genLayers(tr, setups)
	var wcalls, wsteps, wbusy int64
	for _, rule := range coverRules {
		var covers int64
		for _, n := range coverSizes {
			name := fmt.Sprintf("walk.%s.%d", rule, n)
			c, st := tr.sum(name)
			busy := tr.selfNs(name)
			e.setLayer(name+".ns_per_step", float64(busy)/float64(max(st, 1)))
			covers += c
			wcalls, wsteps, wbusy = wcalls+c, wsteps+st, wbusy+busy
		}
		e.setLayer("walk."+rule+".alloc_bytes_per_cover", float64(allocs[rule])/float64(max(covers, 1)))
	}
	e.setLayer("walk.calls", float64(wcalls)/k)
	e.setLayer("walk.steps", float64(wsteps)/k)
	e.setLayer("walk.busy_s", seconds(wbusy)/k)
	e.setLayer("walk.ns_per_step", float64(wbusy)/float64(max(wsteps, 1)))
	e.zeroLayers()
	return tr.write(fmt.Sprintf("cover-kernel-seed%d", e.seed))
}

// cover runs one job through the public cover API and returns its
// walk length: edge cover for the E-processes, vertex cover for SRW.
func cover(j coverJob, g *repro.Graph) (int64, error) {
	r := rng.NewXoshiro256(j.seed)
	switch j.rule {
	case "uniform", "lowest":
		var rule repro.Rule = repro.Uniform{}
		if j.rule == "lowest" {
			rule = repro.LowestEdgeFirst{}
		}
		ct, err := repro.CoverBoth(repro.NewEProcess(g, r, rule, 0), 0)
		return max(ct.Vertex, ct.Edge), err
	default:
		return repro.VertexCoverSteps(repro.NewSimple(g, r, 0), 0)
	}
}
