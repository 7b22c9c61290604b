package walk

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/rng"
)

// footprint is the resident memory of one cover trial's hot state —
// frozen CSR graph, E-process (pending arena + visited bitset) and
// cover scratch — measured from live heap growth, plus the
// construction-allocation profile. bytesPerHalf is the headline layout
// metric: total hot bytes divided by the 2m half-edges, ~16 for the
// packed 32-bit layout (two 8-byte copies of each half dominate) versus
// ~33 for the former 16-byte-Half/[]bool layout.
type footprint struct {
	halfBytes     int     // unsafe.Sizeof(graph.Half{})
	heapBytes     int64   // live heap growth holding the hot state
	bytesPerHalf  float64 // heapBytes / 2m
	peakAllocObjs int64   // allocations to build + run one cover
	peakAllocByte int64   // bytes allocated to build + run one cover
}

// measureFootprint builds one cover trial's complete hot state and
// measures it: live heap growth for the resident-bytes metric, and the
// allocation totals for build-plus-first-cover as the peak-alloc
// profile (steady-state trials allocate nothing; construction is the
// peak).
func measureFootprint(t *testing.T, n, d int) footprint {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := mustRegular(t, newRand(31), n, d)
	g.Freeze()
	e := NewEProcess(g, rng.NewXoshiro256(32), nil, 0)
	var sc CoverScratch
	if _, err := sc.VertexCoverSteps(e, 0); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	res := footprint{
		halfBytes:     int(unsafe.Sizeof(graph.Half{})),
		heapBytes:     heap,
		bytesPerHalf:  float64(heap) / float64(2*g.M()),
		peakAllocObjs: int64(after.Mallocs) - int64(before.Mallocs),
		peakAllocByte: int64(after.TotalAlloc) - int64(before.TotalAlloc),
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(&sc)
	runtime.KeepAlive(g)
	return res
}

// The footprint probe must report the packed layout: 8-byte halves and
// a resident hot state below the former 16-byte-Half layout's floor
// (two 16-byte copies of every half alone put it past 32 B/half).
func TestMeasureFootprintPackedLayout(t *testing.T) {
	res := measureFootprint(t, 500, 4)
	if res.halfBytes != 8 {
		t.Fatalf("sizeof(graph.Half) = %d, want 8", res.halfBytes)
	}
	if res.heapBytes <= 0 || res.peakAllocObjs <= 0 || res.peakAllocByte <= 0 {
		t.Fatalf("implausible footprint %+v", res)
	}
	if res.bytesPerHalf >= 32 {
		t.Errorf("bytes per half = %.1f, want below the 16-byte-Half layout's 32", res.bytesPerHalf)
	}
}
