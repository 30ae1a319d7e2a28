//go:build !race

package sparse

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// The counts below hold for normal builds; the race detector's
// instrumentation changes what allocates.

// TestSpMVParallelSteadyStateAllocs: a parallel SpMV allocates its body
// closure, the team job and the job's done channel — three objects, whose
// size does not grow with the matrix — in every implemented format. Counted
// from runtime.MemStats like testing.Benchmark's AllocsPerOp
// and AllocedBytesPerOp, without its second of wall time per format and size
// (testing.AllocsPerRun is no use: it runs at GOMAXPROCS 1, where nothing
// dispatches); the least of three rounds.
func TestSpMVParallelSteadyStateAllocs(t *testing.T) {
	const rounds, calls = 3, 16
	perCall := func(m Matrix, y, x []float64) (allocs, bytes uint64) {
		allocs, bytes = math.MaxUint64, math.MaxUint64
		var before, after runtime.MemStats
		for r := 0; r < rounds; r++ {
			m.SpMVParallel(y, x)
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				m.SpMVParallel(y, x)
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/calls)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/calls)
		}
		return allocs, bytes
	}
	tridiagonal := func(n int) *CSR {
		ptr := make([]int, n+1)
		col := make([]int32, 0, 3*n)
		for i := 0; i < n; i++ {
			for j := max(i-1, 0); j <= min(i+1, n-1); j++ {
				col = append(col, int32(j))
			}
			ptr[i+1] = len(col)
		}
		data := make([]float64, len(col))
		for k := range data {
			data[k] = 1 + float64(k%7)
		}
		a, err := NewCSR(n, n, ptr, col, data)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	var bytesAt [2]map[string]uint64
	for s, n := range []int{30_000, 300_000} {
		a := tridiagonal(n)
		if a.NNZ() < parallel.MinParallelWork || len(a.rowRanges) < 2 {
			t.Fatalf("n=%d: %d nnz in %d row ranges never dispatches", n, a.NNZ(), len(a.rowRanges))
		}
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = float64(i%13) - 6
		}
		bytesAt[s] = make(map[string]uint64)
		cases := map[string]Matrix{}
		for _, f := range Implemented {
			if !CanConvert(a, f, DefaultLimits) {
				t.Fatalf("n=%d: %v refuses a tridiagonal matrix", n, f)
			}
			m, err := ConvertFromCSR(a, f, DefaultLimits)
			if err != nil {
				t.Fatal(err)
			}
			cases[f.String()] = m
		}
		for name, m := range cases {
			allocs, bytes := perCall(m, y, x)
			if allocs > 3 {
				t.Errorf("n=%d %s: %d allocations per SpMVParallel, want at most 3", n, name, allocs)
			}
			bytesAt[s][name] = bytes
		}
	}
	for name, small := range bytesAt[0] {
		large := bytesAt[1][name]
		if large > small+64 || small > large+64 {
			t.Errorf("%s: %d B per call at 30k rows, %d B at 300k: a dispatch's allocation grows with the matrix", name, small, large)
		}
	}
}

// TestSpMVSerialAllocatesNothing: the serial product of every implemented
// format allocates nothing — no closure, no partition, no scratch — on a
// matrix large enough that the parallel entry point would dispatch.
func TestSpMVSerialAllocatesNothing(t *testing.T) {
	a := longRowsShape(t, 30_000).a
	if a.NNZ() < parallel.MinParallelWork {
		t.Fatalf("%d nnz never dispatches", a.NNZ())
	}
	rows, cols := a.Dims()
	x, y := make([]float64, cols), make([]float64, rows)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	for f, m := range allFormatsOf(t, a) {
		if allocs := testing.AllocsPerRun(16, func() { m.SpMV(y, x) }); allocs != 0 {
			t.Errorf("%v: %v allocations per serial SpMV, want 0", f, allocs)
		}
	}
}
