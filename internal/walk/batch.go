package walk

import "repro/internal/graph"

// Lane describes one walk of a Batch run: the frozen graph it walks,
// its private random source, and its start vertex.
type Lane struct {
	G     *graph.Graph
	R     Intner
	Start int
}

// LaneOutcome is one lane's cover result, exactly what the CoverScratch
// drivers return for the same (graph, generator, start, budget): the
// cover times observed, the total steps taken, and the budget error
// (wrapping ErrStepBudget) when the run was censored.
type LaneOutcome struct {
	Steps int64
	Times CoverTimes
	Err   error
}

// Batch runs one Uniform-rule E-process cover per Lane through the
// CoverScratch kernel (UniformCover / UniformVertexCover), one after
// another over one reused scratch. New code should call the kernel
// directly; Batch stays for callers written against the lane API. The
// zero value is ready to use; a Batch is not safe for concurrent use,
// and the Lane generators must not be shared between lanes.
type Batch struct {
	sc CoverScratch
	// trace, when non-nil, observes every transition as (lane, edgeID,
	// vertex) — the golden-trajectory tests' window into the kernel.
	trace func(lane, edgeID, vertex int)
}

// Cover runs every lane until its vertices and edges are both covered
// (or its budget censors it) and returns one outcome per lane, in lane
// order. maxSteps <= 0 means each lane gets the default budget for its
// own graph.
func (b *Batch) Cover(lanes []Lane, maxSteps int64) []LaneOutcome {
	return b.run(lanes, maxSteps, true)
}

// VertexCover is Cover but stops each lane at vertex cover.
func (b *Batch) VertexCover(lanes []Lane, maxSteps int64) []LaneOutcome {
	return b.run(lanes, maxSteps, false)
}

func (b *Batch) run(lanes []Lane, maxSteps int64, edges bool) []LaneOutcome {
	out := make([]LaneOutcome, len(lanes))
	for i, ln := range lanes {
		b.sc.trace = nil
		if b.trace != nil {
			b.sc.trace = func(e, v int) { b.trace(i, e, v) }
		}
		steps, ct, err := b.sc.uniform(ln.G, ln.R, ln.Start, maxSteps, edges)
		out[i] = LaneOutcome{Steps: steps, Times: ct, Err: err}
	}
	return out
}
