package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/walk"
)

// registryS4 runs every registry experiment at scale 4 with one
// worker through Experiment.Run and encodes each Result: the paper's
// full record at the scale users run, dominated by graph generation
// and analysis.
func registryS4(e *env) error {
	cfg := sim.ExpConfig{Seed: derive(e.seed, 0), Scale: 4, Workers: 1}
	if e.tiny {
		cfg.Scale, cfg.Trials = 1, 1
	}
	return e.registry("registry-s4", cfg, false)
}

// registryJournal runs every experiment at scale 1 with nproc workers
// into a fresh checkpoint journal, then resumes each complete journal:
// many short units, so scheduling, fsync'd journal writes and the
// restore path carry a large share of the time. A pass runs one master
// seed and lasts about 2 s, so a run holds many passes to take the
// median of.
func registryJournal(e *env) error {
	cfg := sim.ExpConfig{Seed: derive(e.seed, 1), Scale: 1, Workers: runtime.GOMAXPROCS(0)}
	if e.tiny {
		cfg.Trials = 1
	}
	return e.registry("registry-journal", cfg, true)
}

// registryPass is what one pass of a registry workload measured.
type registryPass struct {
	wall, run, resume time.Duration
	latencies         []float64 // µs per experiment run, in run order
}

// registry drives both registry workloads: every experiment at cfg,
// optionally journaled and then resumed.
func (e *env) registry(name string, cfg sim.ExpConfig, journaled bool) error {
	exps := sim.Registry()
	// The set-up is planning every experiment at every configuration.
	// It takes well under a millisecond, so a handful of samples at the
	// start would catch the host at one moment: setup_s is the median of
	// samples taken at the start and before every experiment of the
	// untraced passes, spread over the run as the passes are.
	units := 0
	var setups []time.Duration
	setup := func() error {
		t0 := time.Now()
		units = 0
		for _, x := range exps {
			plan, _, err := x.Plan(cfg)
			if err != nil {
				return fmt.Errorf("%s: plan: %w", x.Name, err)
			}
			units += plan.UnitCount()
		}
		setups = append(setups, time.Since(t0))
		return nil
	}
	for range 9 {
		if err := setup(); err != nil {
			return err
		}
	}
	e.detail["units_per_pass"] = units
	e.detail["experiments"] = len(exps)

	// bodies holds each output's bytes from the first untraced pass,
	// the reference every later pass and the traced run must match.
	bodies := map[string][]byte{}
	var passes []registryPass
	untraced := func() (time.Duration, error) {
		p, err := e.registryPass(name, exps, cfg, journaled, bodies, nil, false, setup)
		passes = append(passes, p)
		return p.wall, err
	}
	budget := e.budget
	if e.traced {
		budget /= 2
	}
	if _, err := repeat(budget, untraced); err != nil {
		return err
	}
	var wall, run, resume []time.Duration
	var lat []float64
	for _, p := range passes {
		wall, run, resume = append(wall, p.wall), append(run, p.run), append(resume, p.resume)
		lat = append(lat, p.latencies...)
	}
	e.detail["wall_s"] = summarize(durs(wall, time.Second))
	e.detail["experiment_latency_us"] = summarize(lat)
	e.detail["units_per_s"] = float64(units) / medianDur(run).Seconds()
	e.detail["setup_s"] = summarize(durs(setups, time.Second))
	if journaled {
		e.detail["resume_s"] = summarize(durs(resume, time.Second))
	}
	if !e.traced {
		e.setE2E("wall_s", medianDur(wall).Seconds())
		e.setE2E("setup_s", medianDur(setups).Seconds())
		e.setE2E("throughput_per_s", float64(units)/medianDur(run).Seconds())
		// The median experiment run over every experiment and pass. The
		// run times span two orders of magnitude, but a registry-journal
		// run holds about twenty passes, so the median lands among the
		// same experiments from run to run.
		e.setE2E("latency_us", quantile(lat, 0.5))
		e.setE2E("peak_rss_mb", peakRSS())
		return nil
	}

	// Traced run: the same passes through each plan with every layer
	// call wrapped in a span; journal.overhead_s compares against the
	// same traced pass without a journal.
	tr, bare := newTracer(), newTracer()
	var traced []registryPass
	var journalOverhead time.Duration
	tracedPass := func() (time.Duration, error) {
		p, err := e.registryPass(name, exps, cfg, journaled, bodies, tr, false, nil)
		traced = append(traced, p)
		if err != nil || !journaled {
			return p.wall, err
		}
		q, err := e.registryPass(name, exps, cfg, false, bodies, bare, true, nil)
		journalOverhead += p.run - q.run
		return p.wall, err
	}
	if _, err := repeat(budget, tracedPass); err != nil {
		return err
	}
	var twall []time.Duration
	for _, p := range traced {
		twall = append(twall, p.wall)
	}
	k := float64(len(traced))
	e.setLayer("trace.overhead_pct", 100*(medianDur(twall).Seconds()/medianDur(wall).Seconds()-1))
	e.setLayer("journal.overhead_s", journalOverhead.Seconds()/k)
	e.layerSpans(tr, k)
	e.setLayer("sim.units", float64(units))
	var busy int64
	for _, s := range []string{"gen", "freeze", "walk"} {
		busy += tr.selfNs(s)
	}
	var pool int64
	for _, s := range tr.spans {
		if s.Name == "run" {
			pool += s.dur() * s.N
		}
	}
	e.setLayer("sim.pool_unattributed_s", seconds(pool-busy)/k)
	expWall, expFinish := map[string]int64{}, map[string]int64{}
	for _, s := range tr.spans {
		switch {
		case s.Parent < 0:
			expWall[s.Name] += s.dur()
		case s.Name == "finish":
			expFinish[tr.spans[s.Parent].Name] += s.dur()
		}
	}
	for _, x := range experimentNames {
		e.setLayer("exp."+x+".wall_s", seconds(expWall["exp."+x])/k)
		e.setLayer("exp."+x+".finish_s", seconds(expFinish["exp."+x])/k)
	}
	if journaled {
		files, size, err := journalSize(filepath.Join(e.dir, "journal"))
		if err != nil {
			return err
		}
		e.setLayer("journal.files", float64(files))
		e.setLayer("journal.bytes", float64(size))
	}
	e.zeroLayers()
	return tr.write(fmt.Sprintf("%s-seed%d", name, e.seed))
}

// genLayers sets the graph-build metrics from the "gen" and "freeze"
// spans of k traced passes (or set-ups).
func (e *env) genLayers(tr *tracer, k float64) {
	calls, edges := tr.sum("gen")
	gen := tr.selfNs("gen")
	e.setLayer("gen.calls", float64(calls)/k)
	e.setLayer("gen.edges", float64(edges)/k)
	e.setLayer("gen.busy_s", seconds(gen)/k)
	e.setLayer("gen.ns_per_edge", float64(gen)/float64(max(edges, 1)))
	e.setLayer("graph.freeze_busy_s", seconds(tr.selfNs("freeze"))/k)
}

// layerSpans sets the per-pass layer metrics the registry workloads
// derive from spans: k passes were traced.
func (e *env) layerSpans(tr *tracer, k float64) {
	e.genLayers(tr, k)
	calls, steps := tr.sum("walk")
	w := tr.selfNs("walk")
	e.setLayer("walk.calls", float64(calls)/k)
	e.setLayer("walk.steps", float64(steps)/k)
	e.setLayer("walk.busy_s", seconds(w)/k)
	e.setLayer("walk.ns_per_step", float64(w)/float64(max(steps, 1)))
	e.setLayer("analysis.busy_s", seconds(tr.selfNs("finish"))/k)
	e.setLayer("sim.plan_busy_s", seconds(tr.selfNs("plan"))/k)
	_, encoded := tr.sum("encode")
	e.setLayer("sim.encode_busy_s", seconds(tr.selfNs("encode"))/k)
	e.setLayer("sim.encode_bytes", float64(encoded)/k)
}

// registryPass runs every experiment at cfg once. With a tracer it
// goes through the instrumented plan path; bare marks the journal-free
// comparison pass, whose outputs are checked but not timed into the
// pass. A non-nil setup runs, untimed, before every experiment.
func (e *env) registryPass(name string, exps []sim.Experiment, cfg sim.ExpConfig, journaled bool, bodies map[string][]byte, tr *tracer, bare bool, setup func() error) (registryPass, error) {
	var p registryPass
	root := filepath.Join(e.dir, "journal")
	if journaled {
		if err := os.RemoveAll(root); err != nil {
			return p, err
		}
	}
	for _, x := range exps {
		key := name + "/" + x.Name
		if setup != nil {
			if err := setup(); err != nil {
				return p, err
			}
		}
		var ck *sim.Checkpoint
		if journaled {
			ck = &sim.Checkpoint{Dir: filepath.Join(root, x.Name)}
		}
		t0 := time.Now()
		body, err := runExperiment(tr, "exp."+x.Name, x, cfg, ck)
		d := time.Since(t0)
		p.run += d
		p.latencies = append(p.latencies, float64(d)/1e3)
		e.op(err)
		if err != nil {
			continue
		}
		e.sameBytes(key, body, bodies, tr != nil, bare)
		if !journaled {
			continue
		}
		resumed := *ck
		resumed.Resume = true
		t0 = time.Now()
		rbody, err := runExperiment(tr, "resume."+x.Name, x, cfg, &resumed)
		p.resume += time.Since(t0)
		e.op(err)
		if err == nil {
			e.check(bytes.Equal(body, rbody), "%s: resumed Result differs from the journaled one", key)
		}
	}
	p.wall = p.run + p.resume
	return p, nil
}

// sameBytes checks an output against the reference bytes of its key:
// the first untraced pass sets (and pins) the reference, every other
// pass, traced or not, must reproduce it exactly.
func (e *env) sameBytes(key string, body []byte, bodies map[string][]byte, traced, bare bool) {
	ref, ok := bodies[key]
	if !ok {
		bodies[key] = body
		sum := sha256.Sum256(body)
		e.pinned(key, hex.EncodeToString(sum[:]))
		return
	}
	what := "a repeated pass"
	switch {
	case bare:
		what = "the journal-free traced pass"
	case traced:
		what = "the traced pass"
	}
	e.check(bytes.Equal(ref, body), "%s: Result bytes of %s differ from the untraced run", key, what)
}

// runExperiment runs x at cfg and returns its encoded Result. Without
// a tracer it is Experiment.Run; with one it plans, instruments and
// runs the plan itself, as Experiment.Run does, recording a span per
// layer call under a root span named root.
func runExperiment(tr *tracer, root string, x sim.Experiment, cfg sim.ExpConfig, ck *sim.Checkpoint) ([]byte, error) {
	ctx := context.Background()
	var buf bytes.Buffer
	if tr == nil {
		res, err := x.Run(ctx, cfg, sim.RunOptions{Checkpoint: ck})
		if err != nil {
			return nil, err
		}
		err = res.WriteJSON(&buf)
		return buf.Bytes(), err
	}
	top := tr.begin(root, -1, 0)
	defer tr.end(top, 0)
	s := tr.begin("plan", top, 0)
	plan, finish, err := x.Plan(cfg)
	tr.end(s, 0)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: plan: %w", x.Name, err)
	}
	trials, scale := cfg.Trials, max(cfg.Scale, 1)
	if trials == 0 {
		trials = 5 // ExpConfig's default
	}
	opts := sim.RunOptions{}
	if ck != nil {
		stamped := *ck
		stamped.Name, stamped.Salt, stamped.Scale = x.Name, x.Salt, scale
		opts.Checkpoint = &stamped
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s = tr.begin("run", top, 0)
	instrument(tr, plan, s)
	points, err := plan.RunContext(ctx, opts)
	tr.end(s, int64(workers))
	if err != nil {
		return nil, err
	}
	s = tr.begin("finish", top, 0)
	res, err := finish(points)
	tr.end(s, 0)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", x.Name, err)
	}
	res.Name, res.Seed, res.Trials, res.Scale = x.Name, cfg.Seed, trials, scale
	s = tr.begin("encode", top, 0)
	err = res.WriteJSON(&buf)
	tr.end(s, int64(buf.Len()))
	return buf.Bytes(), err
}

// graphUnits maps each graph a plan built to its unit until the plan's
// arms have walked it. It lives no longer than the plan, so it keeps
// no graph alive that the plan's results do not.
type graphUnits struct {
	mu sync.Mutex
	m  map[*graph.Graph]graphUnit
}

// graphUnit is the unit a graph was built for and the number of arm
// calls that have yet to walk it.
type graphUnit struct {
	unit int64
	uses int
}

// bind records that g was built for unit and that uses arm calls will
// walk it.
func (gu *graphUnits) bind(g *graph.Graph, unit int64, uses int) {
	gu.mu.Lock()
	defer gu.mu.Unlock()
	gu.m[g] = graphUnit{unit, uses}
}

// walked returns the unit g was built for and counts one arm call on
// it, forgetting g after the last one.
func (gu *graphUnits) walked(g *graph.Graph) int64 {
	gu.mu.Lock()
	defer gu.mu.Unlock()
	u := gu.m[g]
	if u.uses--; u.uses > 0 {
		gu.m[g] = u
	} else {
		delete(gu.m, g)
	}
	return u.unit
}

// instrument wraps a plan's exported graph factories and arm functions
// in spans under parent. The graph wrapper freezes the graph itself
// (Freeze is idempotent, so the runner's own call is then free) to
// time Freeze apart from generation. Arm calls take their unit from
// the graphs they walk.
func instrument(tr *tracer, plan *sim.SweepPlan, parent int) {
	units := &graphUnits{m: map[*graph.Graph]graphUnit{}}
	for pi := range plan.Points {
		pt := &plan.Points[pi]
		build := pt.Graph
		pt.Graph = func(r *rand.Rand) (*graph.Graph, error) {
			unit := tr.newUnit()
			s := tr.begin("gen", parent, unit)
			g, err := build(r)
			if err != nil {
				tr.end(s, 0)
				return nil, err
			}
			tr.end(s, int64(g.M()))
			s = tr.begin("freeze", parent, unit)
			g.Freeze()
			tr.end(s, 0)
			units.bind(g, unit, len(pt.Arms))
			return g, nil
		}
		for ai := range pt.Arms {
			arm := &pt.Arms[ai]
			run := arm.Run
			arm.Run = func(trial int, g *graph.Graph, r *rng.Rand, sc *walk.CoverScratch, maxSteps int64) (sim.Measurement, error) {
				s := tr.begin("walk", parent, units.walked(g))
				m, err := run(trial, g, r, sc, maxSteps)
				tr.end(s, steps(m))
				return m, err
			}
			if batch := arm.RunBatch; batch != nil {
				arm.RunBatch = func(gs []*graph.Graph, rs []*rng.Rand, bt *walk.Batch, maxSteps int64) ([]sim.Measurement, []error) {
					us := make([]int64, len(gs))
					for i, g := range gs {
						us[i] = units.walked(g)
					}
					s := tr.beginUnits("walk", parent, us)
					ms, errs := batch(gs, rs, bt, maxSteps)
					var n int64
					for i := range ms {
						if errs[i] == nil {
							n += steps(ms[i])
						}
					}
					tr.end(s, n)
					return ms, errs
				}
			}
		}
	}
}

// steps is the walk length an arm's measurement reports: the later of
// its vertex and edge cover times.
func steps(m sim.Measurement) int64 { return int64(max(m.Vertex, m.Edge)) }

// journalSize counts the files and bytes under the journal root.
func journalSize(root string) (files, size int64, err error) {
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		size += info.Size()
		return nil
	})
	return files, size, err
}
