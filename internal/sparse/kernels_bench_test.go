package sparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkCSRRowDot locates the row-length break-even of the gathered
// AVX2 dot product against the unrolled scalar loop — the measurement
// behind the vecMinRow threshold in kernels.go.
func BenchmarkCSRRowDot(b *testing.B) {
	if !HasVectorKernels() {
		b.Skip("no assembly kernels on this host/build")
	}
	const cols = 1 << 16
	x := make([]float64, cols)
	rng := rand.New(rand.NewSource(5))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, n := range []int{8, 12, 16, 24, 32, 64, 256, 4096} {
		col := make([]int32, n)
		data := make([]float64, n)
		for i := range col {
			col[i] = int32((i * 97) % cols)
			data[i] = rng.NormFloat64()
		}
		for _, variant := range []string{"vector", "scalar"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, variant), func(b *testing.B) {
				prev := ForceGenericKernels(variant == "scalar")
				defer ForceGenericKernels(prev)
				var sink float64
				for i := 0; i < b.N; i++ {
					if vectorOn.Load() {
						sink += csrRowDot(col, data, x)
					} else {
						var sum float64
						for k := range col {
							sum += data[k] * x[col[k]]
						}
						sink += sum
					}
				}
				benchSink = sink
			})
		}
	}
}

var benchSink float64

// BenchmarkCSRSpMM prices the blocked row-panel kernel against what it
// replaces, k SpMV calls on the same matrix, by row-length class: short rows
// (5, a 2-D stencil's), the vecMinRow boundary (12) and long rows (200),
// uniformly scattered columns on ~1.5M nonzeros so the x panel misses cache.
// The ns/nnz/col metric is what one column of one nonzero costs: blocked k = 8
// should not cost more of it than k = 4, and both far less than the SpMVs.
func BenchmarkCSRSpMM(b *testing.B) {
	const nnz = 1500000
	for _, perRow := range []int{5, 12, 200} {
		rows := nnz / perRow
		rng := rand.New(rand.NewSource(int64(perRow)))
		ptr := make([]int, rows+1)
		col := make([]int32, 0, nnz)
		data := make([]float64, 0, nnz)
		stride := rows / perRow // ascending distinct columns: one per stride-wide window
		for i := 0; i < rows; i++ {
			for j := 0; j < perRow; j++ {
				col = append(col, int32(j*stride+rng.Intn(stride)))
				data = append(data, rng.NormFloat64())
			}
			ptr[i+1] = len(data)
		}
		a, err := NewCSR(rows, rows, ptr, col, data)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{4, 8} {
			xp, yp := randVec(rng, rows*k), make([]float64, rows*k)
			x, y := randVec(rng, rows), make([]float64, rows)
			perCol := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)*k), "ns/nnz/col")
			}
			b.Run(fmt.Sprintf("row=%d/k=%d/blocked", perRow, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.SpMMParallel(yp, xp, k)
				}
				perCol(b)
			})
			b.Run(fmt.Sprintf("row=%d/k=%d/spmvs", perRow, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for c := 0; c < k; c++ {
						a.SpMVParallel(y, x)
					}
				}
				perCol(b)
			})
		}
	}
}
