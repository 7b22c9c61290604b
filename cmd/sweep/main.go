// Command sweep runs any experiment from the sim registry (the paper's
// quantitative claims plus Figure 1 — see EXPERIMENTS.md, or `sweep
// -list` for the authoritative, self-describing index) at a chosen
// scale and prints the resulting tables.
//
//	sweep -exp all                  # every experiment, CI scale
//	sweep -exp thm1,radzik -scale 4 # selected experiments, larger n
//	sweep -list                     # list experiment names
//	sweep -exp all -json out/       # also dump one JSON Result per experiment
//	sweep -exp all -v               # progress (units done/total) on stderr
//	sweep -report report.md         # also write the paper's record as markdown
//
// -report FILE writes one markdown document — a title, the seed,
// trials and scale, then one section per experiment in run order with
// its table and notes — once every selected experiment has finished,
// so an interrupted run leaves no partial report. It works on plain and
// -merge runs.
//
// Within one process, every experiment is a point-level sweep: all
// (point, trial) units share one worker pool (-workers), and results
// are byte-identical for any worker count because every seed is a pure
// function of -seed (see the seed-derivation contract in internal/sim).
// That same property makes sharding across processes safe: -shard i/m
// runs the i-th of m contiguous blocks of the selected experiments, so
// a large sweep can be split over machines; every table a shard prints
// is byte-identical to the same table in the unsharded run, and the
// shards together cover exactly the selected set, in order:
//
//	sweep -exp all -scale 16 -shard 0/4   # machine 0 of 4
//	sweep -exp all -scale 16 -shard 1/4   # machine 1 of 4 ...
//
// When a single experiment outgrows one machine, -shard i/m@points
// splits below the experiment level: each process runs a contiguous
// block of every selected experiment's (point, trial) unit space and
// journals it under -checkpoint (required; no tables are printed), and
// -merge stitches the finished shard journals into the canonical
// tables and JSON — byte-identical to an unsharded run:
//
//	sweep -exp scalecover -scale 64 -shard 0/2@points -checkpoint a   # machine A
//	sweep -exp scalecover -scale 64 -shard 1/2@points -checkpoint b   # machine B
//	sweep -exp scalecover -scale 64 -merge a,b -json out/ -report r.md  # anywhere
//
// An interrupt (Ctrl-C) cancels the run promptly: in-flight units
// finish, queued work is dropped, and the process exits with an error.
// With -checkpoint DIR every completed unit is journaled under
// DIR/<exp>/ as it finishes (atomic write-temp+rename, fsync'd
// manifest), so an interrupted run loses at most its in-flight units;
// re-running the same command with -resume validates the journals
// against the current plan (mismatched or corrupted journals are
// rejected, never silently resumed) and re-runs only the missing
// units. Checkpoints are workers-independent, like the tables:
//
//	sweep -exp all -scale 16 -checkpoint ckpt          # ... killed
//	sweep -exp all -scale 16 -checkpoint ckpt -resume  # picks up where it died
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks a command-line usage mistake — inconsistent flags, a
// malformed shard spec — as opposed to a failed run. main exits 2 for
// usage errors (the conventional usage exit code), 1 otherwise, so
// fleet scripts and process managers can tell a bad invocation from a
// genuine failure.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitCode maps an error from run to the process exit code.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

// shardSpec is a parsed -shard flag: the shard coordinates plus the
// partition level — contiguous experiment blocks ("i/m", the default)
// or the point-level (point, trial) unit space ("i/m@points").
type shardSpec struct {
	sim.Shard
	points bool
}

// parseShard parses "i/m" or "i/m@points" with 0 ≤ i < m, rejecting
// trailing garbage (a silently misparsed shard spec would leave part of
// a multi-machine sweep unrun).
func parseShard(s string) (spec shardSpec, err error) {
	body := s
	if base, suffix, ok := strings.Cut(s, "@"); ok {
		if suffix != "points" {
			return spec, fmt.Errorf("bad -shard %q (want 'i/m' or 'i/m@points')", s)
		}
		spec.points = true
		body = base
	}
	is, ms, ok := strings.Cut(body, "/")
	if !ok {
		return spec, fmt.Errorf("bad -shard %q (want 'i/m' or 'i/m@points')", s)
	}
	if spec.Index, err = strconv.Atoi(is); err != nil {
		return spec, fmt.Errorf("bad -shard %q: %w", s, err)
	}
	if spec.Count, err = strconv.Atoi(ms); err != nil {
		return spec, fmt.Errorf("bad -shard %q: %w", s, err)
	}
	if spec.Count < 1 || spec.Index < 0 || spec.Index >= spec.Count {
		return spec, fmt.Errorf("bad -shard %q: need 0 <= i < m", s)
	}
	return spec, nil
}

// shardSelect returns the idx-th of count contiguous blocks of exps.
// Blocks preserve order and partition the input: concatenating the
// outputs of shards 0..count-1 yields the experiments of the unsharded
// run in the unsharded order.
func shardSelect(exps []sim.Experiment, idx, count int) []sim.Experiment {
	lo := idx * len(exps) / count
	hi := (idx + 1) * len(exps) / count
	return exps[lo:hi]
}

// selectExperiments resolves the -exp flag against the registry: "all"
// is the full registry in canonical order, otherwise a comma-separated
// name list resolved through sim.Lookup, in the order given.
func selectExperiments(expList string) ([]sim.Experiment, error) {
	if expList == "all" {
		return sim.Registry(), nil
	}
	var selected []sim.Experiment
	for _, name := range strings.Split(expList, ",") {
		name = strings.TrimSpace(name)
		e, ok := sim.Lookup(name)
		if !ok {
			return nil, usagef("unknown experiment %q (known: %s)", name, strings.Join(sim.Names(), ", "))
		}
		selected = append(selected, e)
	}
	return selected, nil
}

// cliFlags are the flag combinations validate checks, separated from
// run so the CLI tests can pin the usage-error surface directly.
type cliFlags struct {
	shard, ckDir, merge, jsonDir, report string
	resume                               bool
}

// validate rejects inconsistent flag combinations fast, with usage
// errors (exit 2), and returns the parsed shard spec. Failing before
// any experiment runs matters for fleets: a misparsed shard spec or a
// resume pointed at nothing would otherwise burn machine-hours or
// silently journal to a fresh directory.
func (f cliFlags) validate() (shardSpec, error) {
	var spec shardSpec
	var err error
	if f.shard != "" {
		if spec, err = parseShard(f.shard); err != nil {
			return spec, usageError{err}
		}
	}
	if f.resume && f.ckDir == "" {
		return spec, usagef("-resume needs -checkpoint to name the journal directory")
	}
	if f.merge != "" && (f.shard != "" || f.ckDir != "") {
		return spec, usagef("-merge reads finished shard journals; it cannot be combined with -shard or -checkpoint")
	}
	if spec.points && f.ckDir == "" {
		return spec, usagef("-shard i/m@points needs -checkpoint: the journal is the shard's only output")
	}
	if spec.points && f.jsonDir != "" {
		return spec, usagef("-shard i/m@points journals units only and writes no Results; use `-merge ... -json %s` after all shards finish", f.jsonDir)
	}
	if spec.points && f.report != "" {
		return spec, usagef("-shard i/m@points journals units only and writes no report; use `-merge ... -report %s` after all shards finish", f.report)
	}
	return spec, nil
}

// progressOpts returns RunOptions that report (units done / total) for
// the named experiment on stderr when verbose is set.
func progressOpts(name string, verbose bool) sim.RunOptions {
	if !verbose {
		return sim.RunOptions{}
	}
	return sim.StderrProgress(name)
}

// printResult writes one experiment's table, notes and optional JSON
// dump — the shared output path of plain, resumed and merged runs.
func printResult(stdout io.Writer, res *sim.Result, jsonDir string) error {
	if err := res.Table.WriteText(stdout); err != nil {
		return err
	}
	for _, note := range res.Notes {
		fmt.Fprintln(stdout, note)
	}
	if jsonDir != "" {
		if err := res.WriteFile(filepath.Join(jsonDir, res.Name+".json")); err != nil {
			return err
		}
	}
	return nil
}

// writeReport writes the -report markdown document for results to
// path in one write.
func writeReport(path string, cfg sim.ExpConfig, results []*sim.Result) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Paper reproduction report\n\n")
	fmt.Fprintf(&b, "Generated %s · seed %d · trials %d · scale %d\n\n",
		time.Now().Format(time.RFC3339), cfg.Seed, cfg.Trials, cfg.Scale)
	for _, res := range results {
		if err := res.WriteMarkdown(&b); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		expList = fs.String("exp", "all", "comma-separated experiment names, or 'all'")
		scale   = fs.Int("scale", 1, "problem size multiplier (1 = CI scale)")
		trials  = fs.Int("trials", 5, "trials per point")
		seed    = fs.Uint64("seed", 2012, "master seed")
		workers = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		shard   = fs.String("shard", "", "run shard i of m, as 'i/m' (contiguous blocks of the selected experiments) or 'i/m@points' (point-level units within every experiment; requires -checkpoint)")
		ckDir   = fs.String("checkpoint", "", "journal completed (point, trial) units under DIR/<exp>/ so an interrupted run can be resumed")
		resume  = fs.Bool("resume", false, "with -checkpoint: restore completed units from the existing journals and run only the rest")
		merge   = fs.String("merge", "", "comma-separated -checkpoint dirs of point-level shards; stitch their journals into the canonical tables without re-running walks")
		list    = fs.Bool("list", false, "list experiments and exit")
		jsonDir = fs.String("json", "", "also write one JSON Result per experiment into this directory")
		report  = fs.String("report", "", "also write a markdown report (one section per experiment) to this file once every experiment has finished")
		verbose = fs.Bool("v", false, "report sweep progress (units done/total) on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	if *list {
		for _, e := range sim.Registry() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.Name, e.Desc)
		}
		return nil
	}

	selected, err := selectExperiments(*expList)
	if err != nil {
		return err
	}
	spec, err := cliFlags{shard: *shard, ckDir: *ckDir, merge: *merge, jsonDir: *jsonDir, report: *report, resume: *resume}.validate()
	if err != nil {
		return err
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return err
		}
	}

	// SIGTERM joins SIGINT so fleet and process managers (and `sweepd`
	// smoke scripts) get the same graceful drain an interactive Ctrl-C
	// does: in-flight units finish and are journaled, instead of the
	// journal tail being lost to a hard kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := sim.ExpConfig{Seed: *seed, Trials: *trials, Scale: *scale, Workers: *workers}

	// Point-level sharding: run each selected experiment's shard of the
	// (point, trial) unit space and journal it; no tables are printed —
	// a strict subset of the units cannot be aggregated. Merge the
	// shards' -checkpoint dirs afterwards with -merge.
	if spec.points {
		for _, e := range selected {
			opts := progressOpts(e.Name, *verbose)
			opts.Checkpoint = &sim.Checkpoint{Dir: filepath.Join(*ckDir, e.Name), Resume: *resume}
			if err := e.RunShard(ctx, cfg, spec.Shard, opts); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			fmt.Fprintf(stdout, "%s: journaled point shard %d/%d into %s\n", e.Name, spec.Index, spec.Count, opts.Checkpoint.Dir)
		}
		return nil
	}

	// Merge mode stitches the per-experiment journals of finished
	// point-level shards into the canonical output; otherwise each
	// experiment runs (journaled under -checkpoint, if given).
	if *shard != "" {
		selected = shardSelect(selected, spec.Index, spec.Count)
	}
	var results []*sim.Result
	for _, e := range selected {
		opts := progressOpts(e.Name, *verbose)
		var res *sim.Result
		if *merge != "" {
			var dirs []string
			for _, p := range strings.Split(*merge, ",") {
				if p = strings.TrimSpace(p); p != "" {
					dirs = append(dirs, filepath.Join(p, e.Name))
				}
			}
			res, err = sim.MergeShards(ctx, e, cfg, dirs, opts)
		} else {
			if *ckDir != "" {
				opts.Checkpoint = &sim.Checkpoint{Dir: filepath.Join(*ckDir, e.Name), Resume: *resume}
			}
			res, err = e.Run(ctx, cfg, opts)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if len(results) > 0 {
			fmt.Fprintln(stdout)
		}
		if err := printResult(stdout, res, *jsonDir); err != nil {
			return err
		}
		results = append(results, res)
	}
	if *report != "" {
		return writeReport(*report, cfg, results)
	}
	return nil
}
