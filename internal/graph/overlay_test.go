package graph

import (
	"math/rand"
	"testing"
)

// overlayBase builds a small frozen multigraph exercising loops and
// parallel edges: 6 vertices, edges 0:{0,1} 1:{1,2} 2:{2,3} 3:{3,0}
// 4:{0,2} 5:{1,1} (loop) 6:{0,1} (parallel).
func overlayBase(t testing.TB) *Graph {
	t.Helper()
	g := MustFromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 1}, {0, 1}})
	g.Freeze()
	return g
}

// refAdj computes v's live adjacency of o the slow way, straight from
// the base's edge table and the overlay's removal state.
func refAdj(o *Overlay, v int) []Half {
	var out []Half
	for id := 0; id < o.Base().M(); id++ {
		if o.isRemoved(id) {
			continue
		}
		e := o.Base().Edge(id)
		if e.U == v {
			out = append(out, Half{ID: uint32(id), To: uint32(e.V)})
		}
		if e.V == v && !e.IsLoop() {
			out = append(out, Half{ID: uint32(id), To: uint32(e.U)})
		}
		if e.IsLoop() && e.U == v {
			out = append(out, Half{ID: uint32(id), To: uint32(e.V)}) // second half of the loop
		}
	}
	return out
}

func TestOverlayStartsIdenticalToBase(t *testing.T) {
	g := overlayBase(t)
	o := NewOverlay(g)
	if o.Epoch() != 0 || o.N() != g.N() || o.LiveEdges() != g.M() || o.RemovedEdges() != 0 {
		t.Fatalf("fresh overlay state: epoch=%d n=%d live=%d removed=%d",
			o.Epoch(), o.N(), o.LiveEdges(), o.RemovedEdges())
	}
	var buf []Half
	for v := 0; v < g.N(); v++ {
		if o.Deg(v) != g.Degree(v) {
			t.Errorf("Deg(%d)=%d, base %d", v, o.Deg(v), g.Degree(v))
		}
		buf = o.AppendAdj(v, buf[:0])
		adj := g.Adj(v)
		if len(buf) != len(adj) {
			t.Fatalf("vertex %d: overlay %d halves, base %d", v, len(buf), len(adj))
		}
		for i := range buf {
			if buf[i] != adj[i] {
				t.Errorf("vertex %d half %d: overlay %+v, base %+v", v, i, buf[i], adj[i])
			}
		}
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOverlayRemoveRestore(t *testing.T) {
	g := overlayBase(t)
	o := NewOverlay(g)

	// Remove the loop (ID 5): both halves at vertex 1 vanish.
	d1 := o.Deg(1)
	if err := o.RemoveEdge(5); err != nil {
		t.Fatal(err)
	}
	if o.Epoch() != 1 {
		t.Fatalf("epoch %d after one mutation", o.Epoch())
	}
	if got := o.Deg(1); got != d1-2 {
		t.Fatalf("Deg(1)=%d after loop removal, want %d", got, d1-2)
	}
	for _, h := range o.AppendAdj(1, nil) {
		if h.ID == 5 {
			t.Fatal("removed loop still in adjacency")
		}
	}
	if err := o.RemoveEdge(5); err == nil {
		t.Fatal("double remove accepted")
	}
	if err := o.RestoreEdge(0); err == nil {
		t.Fatal("restore of a live edge accepted")
	}
	if err := o.RemoveEdge(g.M()); err == nil {
		t.Fatal("out-of-range remove accepted")
	}
	if err := o.RestoreEdge(-1); err == nil {
		t.Fatal("out-of-range restore accepted")
	}

	// Restore brings the identical halves back.
	if err := o.RestoreEdge(5); err != nil {
		t.Fatal(err)
	}
	if got := o.Deg(1); got != d1 {
		t.Fatalf("Deg(1)=%d after restore, want %d", got, d1)
	}
	if o.Epoch() != 2 {
		t.Fatalf("epoch %d after two mutations", o.Epoch())
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}

	// The shared base graph was never written.
	if g.M() != 7 || !g.Frozen() {
		t.Fatalf("base mutated through overlay: m=%d frozen=%v", g.M(), g.Frozen())
	}
}

// Property test: a random mutation sequence keeps every read API
// consistent with the reference adjacency derived from the edge table,
// and epochs strictly increase.
func TestOverlayRandomChurnAgainstReference(t *testing.T) {
	g := overlayBase(t)
	o := NewOverlay(g)
	r := rand.New(rand.NewSource(7))
	lastEpoch := o.Epoch()
	for step := 0; step < 400; step++ {
		switch op := r.Intn(2); {
		case op == 0 && o.LiveEdges() > 1:
			id := o.LiveEdgeAt(r.Intn(o.LiveEdges()))
			if err := o.RemoveEdge(id); err != nil {
				t.Fatalf("step %d: remove %d: %v", step, id, err)
			}
		case op == 1 && o.RemovedEdges() > 0:
			id := o.RemovedEdgeAt(r.Intn(o.RemovedEdges()))
			if err := o.RestoreEdge(id); err != nil {
				t.Fatalf("step %d: restore %d: %v", step, id, err)
			}
		default:
			continue
		}
		if o.Epoch() <= lastEpoch {
			t.Fatalf("step %d: epoch did not advance (%d -> %d)", step, lastEpoch, o.Epoch())
		}
		lastEpoch = o.Epoch()
		if step%37 == 0 {
			if err := o.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for v := 0; v < g.N(); v++ {
				got := o.AppendAdj(v, nil)
				want := refAdj(o, v)
				if len(got) != len(want) {
					t.Fatalf("step %d vertex %d: %d live halves, reference %d", step, v, len(got), len(want))
				}
				seen := map[Half]int{}
				for _, h := range got {
					seen[h]++
				}
				for _, h := range want {
					if seen[h] == 0 {
						t.Fatalf("step %d vertex %d: reference half %+v missing", step, v, h)
					}
					seen[h]--
				}
			}
		}
	}
	if g.M() != 7 {
		t.Fatal("base mutated during churn")
	}
}
