package check

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

// spmmWidths crosses every path of the row-panel kernel: the scalar tail
// alone (1-3), one 4-block, 4 + tail, one 8-block, 8 + tail, 8 + 8, and all
// three in one row (17).
var spmmWidths = []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17}

// spmmKernelCases are the row shapes the kernel's nonzero loop branches on:
// empty rows, every length from 1 to 9 (unrolled-by-4 body and each tail), a
// row long enough to leave every cache, and the degenerate matrices.
func spmmKernelCases(t *testing.T) []Case {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	var cases []Case
	add := func(name string, a *sparse.CSR, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, Case{Name: name, A: a})
	}
	{
		rows, cols := 1200, 700
		rc := make([][]int, rows)
		for i := range rc {
			rc[i] = distinctColumns(cols, i%10, rng)
		}
		a, err := rowsToCSR(rows, cols, rc, rng)
		add("rows-0-to-9", a, err)
	}
	{
		rows, cols := 5, 40000
		rc := make([][]int, rows)
		rc[1] = distinctColumns(cols, 33001, rng)
		rc[3] = distinctColumns(cols, 7, rng)
		a, err := rowsToCSR(rows, cols, rc, rng)
		add("row-over-32k", a, err)
	}
	a, err := sparse.NewCSR(0, 9, []int{0}, nil, nil)
	add("zero-rows", a, err)
	a, err = sparse.NewCSR(9, 11, make([]int, 10), nil, nil)
	add("zero-nnz", a, err)
	for _, c := range Pathological(5) {
		if c.Name == "ragged" || c.Name == "single-dense-row" {
			cases = append(cases, c)
		}
	}
	return cases
}

// kernelVariants runs body under the assembly kernels (where the host has
// them) and under the forced pure-Go twin.
func kernelVariants(t *testing.T, body func(t *testing.T)) {
	for _, generic := range []bool{false, true} {
		if !generic && !sparse.HasVectorKernels() {
			continue
		}
		prev := sparse.ForceGenericKernels(generic)
		t.Run(sparse.KernelVariant(), body)
		sparse.ForceGenericKernels(prev)
	}
}

func randPanel(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = nonzero(rng)
	}
	return x
}

// TestSpMMKernelAgainstReference is the differential table for the blocked
// kernel: both variants, every width, every row shape, each output column
// within the Higham bound of a reference SpMV on the matching input column.
func TestSpMMKernelAgainstReference(t *testing.T) {
	cases := spmmKernelCases(t)
	kernelVariants(t, func(t *testing.T) {
		for _, c := range cases {
			rows, cols := c.A.Dims()
			for _, k := range spmmWidths {
				x := randPanel(rand.New(rand.NewSource(int64(k))), cols*k)
				y := make([]float64, rows*k)
				for i := range y {
					y[i] = 1e300 // the kernel must overwrite, empty rows included
				}
				c.A.SpMM(y, x, k)
				if err := checkSpMMColumns(c.A, fmt.Sprintf("%s k=%d", c.Name, k), y, x, k); err != nil {
					t.Error(err)
				}
			}
		}
	})
}

// TestSpMMKernelColumnIndependentOfPanel pins the property the serving tier's
// byte-identity rests on: the bits of Y[i][c] depend on row i and on column c
// of X only. Every width's panel is cut out of one 17-column panel at a
// shifted offset, so each column lands in a different block, lane or tail
// slot than it had in the wide product, and must come out bit-equal.
func TestSpMMKernelColumnIndependentOfPanel(t *testing.T) {
	const wide = 17
	cases := spmmKernelCases(t)
	kernelVariants(t, func(t *testing.T) {
		for _, c := range cases {
			rows, cols := c.A.Dims()
			xw := randPanel(rand.New(rand.NewSource(3)), cols*wide)
			yw := make([]float64, rows*wide)
			c.A.SpMM(yw, xw, wide)
			for _, k := range spmmWidths {
				shift := (k + 2) % wide
				x, y := make([]float64, cols*k), make([]float64, rows*k)
				for j := 0; j < cols; j++ {
					for cc := 0; cc < k; cc++ {
						x[j*k+cc] = xw[j*wide+(cc+shift)%wide]
					}
				}
				c.A.SpMM(y, x, k)
				for i := 0; i < rows; i++ {
					for cc := 0; cc < k; cc++ {
						if got, want := y[i*k+cc], yw[i*wide+(cc+shift)%wide]; got != want {
							t.Fatalf("%s k=%d: Y[%d][%d] = %.17g, the same column at width %d gave %.17g",
								c.Name, k, i, cc, got, wide, want)
						}
					}
				}
			}
		}
	})
}

// rowBlock returns rows [lo, hi) of a as a standalone matrix, the way the
// router's partitioner registers a block on a shard.
func rowBlock(t *testing.T, a *sparse.CSR, lo, hi int) *sparse.CSR {
	t.Helper()
	_, cols := a.Dims()
	p0, p1 := a.Ptr[lo], a.Ptr[hi]
	ptr := make([]int, hi-lo+1)
	for i := range ptr {
		ptr[i] = a.Ptr[lo+i] - p0
	}
	b, err := sparse.NewCSR(hi-lo, cols, ptr, a.Col[p0:p1], a.Data[p0:p1])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpMMKernelPartitionAndWorkersBitEqual: the product panel is the same
// bytes whether the rows are multiplied whole or as 1, 2 or 3 standalone
// blocks, and whether the matrix was built and run on one worker or two.
func TestSpMMKernelPartitionAndWorkersBitEqual(t *testing.T) {
	cases := spmmKernelCases(t)
	kernelVariants(t, func(t *testing.T) {
		for _, c := range cases {
			rows, cols := c.A.Dims()
			for _, k := range []int{3, 4, 9} {
				x := randPanel(rand.New(rand.NewSource(int64(k))), cols*k)
				want := make([]float64, rows*k)
				c.A.SpMM(want, x, k)
				equal := func(label string, got []float64) {
					t.Helper()
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s k=%d %s: element %d = %.17g, whole serial product gave %.17g",
								c.Name, k, label, i, got[i], want[i])
						}
					}
				}
				for parts := 1; parts <= 3; parts++ {
					got := make([]float64, rows*k)
					for b := 0; b < parts; b++ {
						lo, hi := rows*b/parts, rows*(b+1)/parts
						sparse.SpMMParallel(rowBlock(t, c.A, lo, hi), got[lo*k:hi*k], x, k)
					}
					equal(fmt.Sprintf("%d row blocks", parts), got)
				}
				for _, procs := range []int{1, 2} {
					old := runtime.GOMAXPROCS(procs)
					got := make([]float64, rows*k)
					c.A.Clone().SpMMParallel(got, x, k) // Clone: the row partition is cut at construction
					runtime.GOMAXPROCS(old)
					equal(fmt.Sprintf("GOMAXPROCS=%d", procs), got)
				}
			}
		}
	})
}
