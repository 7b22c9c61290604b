package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one (point, trial)
// unit or one request share Unit; a batched walk covers several units,
// listed in Units (Unit is the first). Parent is the enclosing span's
// ID (-1 for a root). N is the work the call did: edges generated,
// walk steps, bytes encoded.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Unit   int64   `json:"unit"`
	Units  []int64 `json:"units,omitempty"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	N      int64   `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write saves them when the run ends. A
// nil *tracer records nothing, so untraced code paths can share calls.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	units int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, unit int64) int {
	return t.open(span{Parent: parent, Unit: unit, Name: name})
}

// beginUnits opens a span that works for several units at once.
func (t *tracer) beginUnits(name string, parent int, units []int64) int {
	s := span{Parent: parent, Units: units, Name: name}
	if len(units) > 0 {
		s.Unit = units[0]
	}
	return t.open(s)
}

func (t *tracer) open(s span) int {
	if t == nil {
		return -1
	}
	s.Start = time.Since(t.t0).Nanoseconds()
	s.End = s.Start
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int, n int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End, t.spans[id].N = now, n
}

// add records a call timed by the caller: it started at start and
// lasted d.
func (t *tracer) add(name string, parent int, unit int64, start time.Time, d time.Duration, n int64) {
	if t == nil {
		return
	}
	from := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Unit: unit, Name: name, Start: from, End: from + d.Nanoseconds(), N: n})
}

// newUnit returns a fresh unit id.
func (t *tracer) newUnit() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.units++
	return t.units
}

// selfNs sums, over the spans named name, each span's duration minus
// the part of it its child spans cover.
func (t *tracer) selfNs(name string) int64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total int64
	for _, s := range t.spans {
		if s.Name == name {
			total += s.dur() - covered(s, children[s.ID])
		}
	}
	return total
}

// covered is the length of the union of the children's intervals
// clipped to s.
func covered(s span, children []span) int64 {
	slices.SortFunc(children, func(a, b span) int { return int(a.Start - b.Start) })
	var total int64
	at := s.Start
	for _, c := range children {
		lo, hi := max(c.Start, at), min(c.End, s.End)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// sum returns the count of spans named name and the sum of their N.
func (t *tracer) sum(name string) (calls, n int64) {
	for _, s := range t.spans {
		if s.Name == name {
			calls++
			n += s.N
		}
	}
	return calls, n
}

// write saves the spans as JSON lines under .bench_build/traces.
func (t *tracer) write(name string) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
