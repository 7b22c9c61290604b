package graph

import "fmt"

// Overlay is a removal mask over a frozen base graph: edges of the
// base can fail and be restored *during* a walk without thawing (or
// copying) the base CSR. The base graph is never written — one frozen
// instance can back any number of overlays concurrently, which is
// exactly the sweep runner's shared-graph contract (one frozen graph
// per trial, read-only across arms).
//
// Edge IDs are the base's CSR edge IDs [0, base.M()). Removing an edge
// retires its ID until RestoreEdge revives it; IDs are never
// renumbered, so visited sets sized by base.M() stay valid across
// mutations.
//
// Every mutation advances Epoch(), the stamp consumers use to
// invalidate cached adjacency state (see bits.Set.Sync).
//
// An Overlay is not safe for concurrent use.
type Overlay struct {
	base *Graph

	// removed is the word-packed removed-edge mask, indexed by edge ID.
	removed []uint64
	// deadAt[v] counts removed halves at v, so Deg is O(1).
	deadAt []int32

	// live/dead partition the edge-ID space for O(1) uniform sampling:
	// live lists every live edge ID, dead every removed one, and
	// pos[id] is the ID's index within whichever list holds it.
	live []uint32
	dead []uint32
	pos  []int32

	epoch uint64
}

// NewOverlay returns a removal mask over g, freezing g if needed. The
// overlay starts identical to g: no edge removed, Epoch 0.
func NewOverlay(g *Graph) *Overlay {
	g.Freeze()
	m := g.M()
	o := &Overlay{
		base:    g,
		removed: make([]uint64, (m+63)>>6),
		deadAt:  make([]int32, g.N()),
		live:    make([]uint32, m),
		pos:     make([]int32, m),
	}
	for id := 0; id < m; id++ {
		o.live[id] = uint32(id)
		o.pos[id] = int32(id)
	}
	return o
}

// N returns the number of vertices (that of the base).
func (o *Overlay) N() int { return o.base.N() }

// Epoch returns a counter that advances on every RemoveEdge and
// RestoreEdge. Consumers cache derived state keyed by it and
// invalidate on mismatch.
func (o *Overlay) Epoch() uint64 { return o.epoch }

// Base returns the frozen graph underneath the mask.
func (o *Overlay) Base() *Graph { return o.base }

// isRemoved reports whether edge id is currently removed.
func (o *Overlay) isRemoved(id int) bool {
	return o.removed[uint(id)>>6]&(1<<(uint(id)&63)) != 0
}

// Deg returns the live degree of v in O(1): base degree minus removed
// halves at v (loops count 2).
func (o *Overlay) Deg(v int) int {
	return o.base.Degree(v) - int(o.deadAt[v])
}

// AppendAdj appends the live half-edges of v to dst — the base CSR
// block of v filtered by the removed mask, in CSR order — and returns
// the extended slice.
func (o *Overlay) AppendAdj(v int, dst []Half) []Half {
	for _, h := range o.base.Adj(v) {
		if !o.isRemoved(int(h.ID)) {
			dst = append(dst, h)
		}
	}
	return dst
}

// LiveEdges returns the number of live edges.
func (o *Overlay) LiveEdges() int { return len(o.live) }

// LiveEdgeAt returns the i-th live edge ID, 0 ≤ i < LiveEdges(). The
// enumeration order is unspecified (it permutes under mutation) but
// deterministic, so uniform sampling via LiveEdgeAt(r.Intn(LiveEdges()))
// is reproducible.
func (o *Overlay) LiveEdgeAt(i int) int { return int(o.live[i]) }

// RemovedEdges returns the number of removed edges.
func (o *Overlay) RemovedEdges() int { return len(o.dead) }

// RemovedEdgeAt returns the i-th removed edge ID, 0 ≤ i < RemovedEdges().
func (o *Overlay) RemovedEdgeAt(i int) int { return int(o.dead[i]) }

// RemoveEdge retires live edge id: it vanishes from every adjacency
// read until RestoreEdge revives it. O(1). Removing an edge that is
// already removed (or out of range) is an error.
func (o *Overlay) RemoveEdge(id int) error {
	if id < 0 || id >= o.base.M() {
		return fmt.Errorf("graph: RemoveEdge(%d): ID out of range [0, %d)", id, o.base.M())
	}
	if o.isRemoved(id) {
		return fmt.Errorf("graph: RemoveEdge(%d): already removed", id)
	}
	o.removed[uint(id)>>6] |= 1 << (uint(id) & 63)
	e := o.base.Edge(id)
	o.deadAt[e.U]++
	o.deadAt[e.V]++
	// Swap-remove id from live, append to dead.
	i := o.pos[id]
	last := o.live[len(o.live)-1]
	o.live[i] = last
	o.pos[last] = i
	o.live = o.live[:len(o.live)-1]
	o.pos[id] = int32(len(o.dead))
	o.dead = append(o.dead, uint32(id))
	o.epoch++
	return nil
}

// RestoreEdge revives removed edge id with its original identity. O(1).
func (o *Overlay) RestoreEdge(id int) error {
	if id < 0 || id >= o.base.M() {
		return fmt.Errorf("graph: RestoreEdge(%d): ID out of range [0, %d)", id, o.base.M())
	}
	if !o.isRemoved(id) {
		return fmt.Errorf("graph: RestoreEdge(%d): not removed", id)
	}
	o.removed[uint(id)>>6] &^= 1 << (uint(id) & 63)
	e := o.base.Edge(id)
	o.deadAt[e.U]--
	o.deadAt[e.V]--
	// Swap-remove id from dead, append to live.
	i := o.pos[id]
	last := o.dead[len(o.dead)-1]
	o.dead[i] = last
	o.pos[last] = i
	o.dead = o.dead[:len(o.dead)-1]
	o.pos[id] = int32(len(o.live))
	o.live = append(o.live, uint32(id))
	o.epoch++
	return nil
}

// Validate checks the overlay's internal consistency: the live/dead
// partition against the removed mask, the O(1) degree bookkeeping
// against a full adjacency scan, and the handshake identity over live
// halves.
func (o *Overlay) Validate() error {
	m := o.base.M()
	if len(o.live)+len(o.dead) != m {
		return fmt.Errorf("graph: overlay live %d + dead %d != edge count %d", len(o.live), len(o.dead), m)
	}
	for i, id := range o.live {
		if o.isRemoved(int(id)) || o.pos[id] != int32(i) {
			return fmt.Errorf("graph: overlay live list inconsistent at %d (edge %d)", i, id)
		}
	}
	for i, id := range o.dead {
		if !o.isRemoved(int(id)) || o.pos[id] != int32(i) {
			return fmt.Errorf("graph: overlay dead list inconsistent at %d (edge %d)", i, id)
		}
	}
	halves := 0
	var buf []Half
	for v := 0; v < o.N(); v++ {
		buf = o.AppendAdj(v, buf[:0])
		if len(buf) != o.Deg(v) {
			return fmt.Errorf("graph: overlay Deg(%d)=%d but AppendAdj yields %d halves", v, o.Deg(v), len(buf))
		}
		for _, h := range buf {
			e := o.base.Edge(int(h.ID))
			if (e.U != v && e.V != v) || e.Other(v) != int(h.To) {
				return fmt.Errorf("graph: overlay half %+v at vertex %d inconsistent with edge %+v", h, v, e)
			}
		}
		halves += len(buf)
	}
	if halves != 2*len(o.live) {
		return fmt.Errorf("graph: overlay %d live halves for %d live edges", halves, len(o.live))
	}
	return nil
}
