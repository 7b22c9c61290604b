package walk

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// batchWidths are the lane counts the kernel-vs-sequential property
// tests sweep: degenerate (1), odd and small (3), 8, and far beyond any
// trial count (64), so one reused scratch serves many shapes in a row.
var batchWidths = []int{1, 3, 8, 64}

// seqCover runs the sequential driver with an identically-derived
// generator, as the ground truth the batch lanes must reproduce.
func seqCover(t *testing.T, g *graph.Graph, seed uint64, start int, maxSteps int64, edges bool) LaneOutcome {
	t.Helper()
	e := NewEProcess(g, rng.NewXoshiro256(seed), nil, start)
	var sc CoverScratch
	if edges {
		ct, err := sc.Cover(e, maxSteps)
		steps := max(ct.Vertex, ct.Edge)
		if err != nil {
			steps = maxSteps // censored exactly at the budget
		}
		return LaneOutcome{Steps: steps, Times: ct, Err: err}
	}
	steps, err := sc.VertexCoverSteps(e, maxSteps)
	out := LaneOutcome{Steps: steps, Err: err}
	if err == nil {
		out.Times.Vertex = steps
	}
	return out
}

func checkLane(t *testing.T, name string, got, want LaneOutcome) {
	t.Helper()
	if got.Steps != want.Steps || got.Times != want.Times {
		t.Errorf("%s: batch outcome (steps %d, times %+v) != sequential (steps %d, times %+v)",
			name, got.Steps, got.Times, want.Steps, want.Times)
	}
	switch {
	case (got.Err == nil) != (want.Err == nil):
		t.Errorf("%s: batch err %v != sequential err %v", name, got.Err, want.Err)
	case got.Err != nil && got.Err.Error() != want.Err.Error():
		t.Errorf("%s: batch err %q != sequential err %q", name, got.Err, want.Err)
	}
}

// TestBatchMatchesSequentialPerLaneGraphs is the sweep-runner shape:
// every lane carries its own graph (different sizes, degrees and
// families) and its own seed, and each lane's outcome must equal the
// sequential driver's on the same (graph, seed, budget) — full runs
// and censored runs, Cover and VertexCover, across all batch widths.
func TestBatchMatchesSequentialPerLaneGraphs(t *testing.T) {
	// A pool of heterogeneous graphs lanes draw from round-robin.
	var pool []*graph.Graph
	for i, shape := range []struct{ n, d int }{
		{40, 4}, {61, 4}, {50, 3}, {96, 6}, {33, 4},
	} {
		pool = append(pool, mustRegular(t, newRand(int64(100+i)), shape.n, shape.d))
	}
	if dc, err := gen.DoubleCycle(24); err == nil {
		pool = append(pool, dc)
	} else {
		t.Fatal(err)
	}
	var bt Batch
	for _, w := range batchWidths {
		for _, edges := range []bool{true, false} {
			for _, maxSteps := range []int64{0, 40} {
				lanes := make([]Lane, w)
				for i := range lanes {
					g := pool[i%len(pool)]
					lanes[i] = Lane{G: g, R: rng.NewXoshiro256(uint64(1000*w + i)), Start: i % g.N()}
				}
				var outs []LaneOutcome
				if edges {
					outs = bt.Cover(lanes, maxSteps)
				} else {
					outs = bt.VertexCover(lanes, maxSteps)
				}
				if len(outs) != w {
					t.Fatalf("W=%d: got %d outcomes", w, len(outs))
				}
				for i, got := range outs {
					g := pool[i%len(pool)]
					want := seqCover(t, g, uint64(1000*w+i), i%g.N(), maxSteps, edges)
					checkLane(t, nameOf(w, i, edges, maxSteps), got, want)
				}
			}
		}
	}
}

func nameOf(w, lane int, edges bool, maxSteps int64) string {
	kind := "vertex"
	if edges {
		kind = "cover"
	}
	return kind + "/" + itoa(w) + "/lane" + itoa(lane) + "/max" + itoa(int(maxSteps))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestBatchMatchesSequentialSharedGraph is the many-walks-on-one-CSR
// shape: all lanes share one frozen graph, distinguished only by seed
// and start. Also doubles as the residue test: the same Batch value is
// reused across every width and mode, and a second identically-seeded
// run must reproduce the first exactly.
func TestBatchMatchesSequentialSharedGraph(t *testing.T) {
	g := mustRegular(t, newRand(7), 120, 4)
	var bt Batch
	for _, w := range batchWidths {
		lanes := func() []Lane {
			ls := make([]Lane, w)
			for i := range ls {
				ls[i] = Lane{G: g, R: rng.NewXoshiro256(uint64(77*w + i)), Start: (i * 13) % g.N()}
			}
			return ls
		}
		first := bt.Cover(lanes(), 0)
		for i, got := range first {
			want := seqCover(t, g, uint64(77*w+i), (i*13)%g.N(), 0, true)
			checkLane(t, "shared/"+itoa(w)+"/lane"+itoa(i), got, want)
		}
		again := bt.Cover(lanes(), 0)
		for i := range first {
			if first[i].Steps != again[i].Steps || first[i].Times != again[i].Times {
				t.Errorf("W=%d lane %d: reused Batch diverged: %+v vs %+v", w, i, first[i], again[i])
			}
		}
	}
}

// TestBatchShapeChurn re-runs one Batch across runs whose lane counts
// and graph sizes grow and shrink, so the reused kernel scratch cannot
// leak state between shapes.
func TestBatchShapeChurn(t *testing.T) {
	small := mustRegular(t, newRand(31), 36, 4)
	big := mustRegular(t, newRand(32), 200, 4)
	var bt Batch
	for run, shape := range [][]*graph.Graph{
		{big, big, big}, {small}, {big, small, big, small, big}, {small, small},
	} {
		lanes := make([]Lane, len(shape))
		for i, g := range shape {
			lanes[i] = Lane{G: g, R: rng.NewXoshiro256(uint64(900 + 10*run + i)), Start: 0}
		}
		for i, got := range bt.Cover(lanes, 0) {
			want := seqCover(t, shape[i], uint64(900+10*run+i), 0, 0, true)
			checkLane(t, "churn/run"+itoa(run)+"/lane"+itoa(i), got, want)
		}
	}
}

// TestBatchTrivialGraph: a lane whose graph is already covered at step
// 0 (one vertex, no edges) must finish with zero steps and no error,
// like the sequential drivers.
func TestBatchTrivialGraph(t *testing.T) {
	g := graph.New(1)
	normal := mustRegular(t, newRand(41), 30, 4)
	var bt Batch
	outs := bt.Cover([]Lane{
		{G: g, R: rng.NewXoshiro256(1), Start: 0},
		{G: normal, R: rng.NewXoshiro256(2), Start: 0},
	}, 0)
	if outs[0].Err != nil || outs[0].Steps != 0 {
		t.Errorf("trivial lane: %+v, want zero steps and nil error", outs[0])
	}
	want := seqCover(t, normal, 2, 0, 0, true)
	checkLane(t, "after-trivial", outs[1], want)
}
