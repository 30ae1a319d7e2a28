package sparse

import (
	"fmt"

	"repro/internal/parallel"
)

// SpMM computes the sparse-times-dense-block product Y = A * X for any
// matrix format, where X holds k dense column vectors stored row-major
// (X[j*k : j*k+k] is row j) and Y is rows x k in the same layout. CSR runs
// the blocked row-panel kernel below; every other format runs k SpMV calls
// through gathered column scratch. There is deliberately no blocked kernel
// per format: with a row-major panel the x access of a nonzero is one
// contiguous load instead of a gather, which is what made format matter,
// and the handles that serve blocked products keep their CSR master anyway.
func SpMM(m Matrix, y, x []float64, k int) {
	if a, ok := m.(*CSR); ok {
		a.SpMM(y, x, k)
		return
	}
	spmmColumns(m, y, x, k, false)
}

// SpMMParallel is SpMM over the worker team.
func SpMMParallel(m Matrix, y, x []float64, k int) {
	if a, ok := m.(*CSR); ok {
		a.SpMMParallel(y, x, k)
		return
	}
	spmmColumns(m, y, x, k, true)
}

// spmmColumns is the fallback for non-CSR operands: column c of X is
// gathered into contiguous scratch, multiplied with the format's own SpMV
// kernel, and scattered into Y's row-major block. One x/y scratch pair is
// reused across all k columns.
func spmmColumns(m Matrix, y, x []float64, k int, par bool) {
	rows, cols := m.Dims()
	checkSpMMShape(rows, cols, y, x, k)
	xc := make([]float64, cols)
	yc := make([]float64, rows)
	for c := 0; c < k; c++ {
		for j := 0; j < cols; j++ {
			xc[j] = x[j*k+c]
		}
		if par {
			m.SpMVParallel(yc, xc)
		} else {
			m.SpMV(yc, xc)
		}
		for i := 0; i < rows; i++ {
			y[i*k+c] = yc[i]
		}
	}
}

// SpMM computes Y = A * X with X and Y row-major rows x k panels: the
// blocked row-panel kernel. Y[i][c] is summed in an order fixed by row i
// alone, so its bits depend on row i and column c of X and on nothing else —
// not on k, on where the column sits in the panel, on how rows are split
// across workers or handles, or on the worker count.
func (m *CSR) SpMM(y, x []float64, k int) { m.spmm(y, x, k, false) }

// SpMMParallel is SpMM over the nnz-balanced row chunks.
func (m *CSR) SpMMParallel(y, x []float64, k int) { m.spmm(y, x, k, true) }

// spmm runs the panel rows inline or on the team, through the gate every
// SpMV takes (onTeam); a product reads each stored slot k times.
func (m *CSR) spmm(y, x []float64, k int, par bool) {
	checkSpMMShape(m.rows, m.cols, y, x, k)
	if !onTeam(par, len(m.Data)*k) {
		m.spmmRows(y, x, k, 0, m.rows)
		return
	}
	parallel.ForRanges(m.rowRanges, func(lo, hi int) {
		m.spmmRows(y, x, k, lo, hi)
	})
}

// spmmRows computes panel rows [lo, hi) with the AVX2 kernel or its pure-Go
// twin. The two differ from each other by rounding only (tests compare them
// through the Higham bound); each on its own has the fixed-order property
// SpMM documents.
func (m *CSR) spmmRows(y, x []float64, k, lo, hi int) {
	if lo >= hi {
		return
	}
	if len(m.Data) == 0 {
		clear(y[lo*k : hi*k])
		return
	}
	if vectorOn.Load() {
		spmmRowsAsm(&m.Ptr[lo], &m.Col[0], &m.Data[0], &x[0], &y[lo*k], k, hi-lo)
		return
	}
	m.spmmRowsGeneric(y, x, k, lo, hi)
}

// spmmRowsGeneric is the register-blocked pure-Go kernel: four columns of
// the panel at a time, their sums held in locals across the row's nonzeros,
// then the k mod 4 columns one by one. Every column is summed sequentially
// in nonzero order whichever loop it lands in. The float64 conversions stop
// compilers that fuse x*y+z (arm64, ppc64, s390x) from rounding the two
// loops differently.
func (m *CSR) spmmRowsGeneric(y, x []float64, k, lo, hi int) {
	col, data := m.Col, m.Data
	for i := lo; i < hi; i++ {
		p0, p1 := m.Ptr[i], m.Ptr[i+1]
		yRow := y[i*k : (i+1)*k]
		c := 0
		for ; c+4 <= k; c += 4 {
			var s0, s1, s2, s3 float64
			for p := p0; p < p1; p++ {
				v := data[p]
				xr := x[int(col[p])*k+c:]
				xr = xr[:4]
				s0 += float64(v * xr[0])
				s1 += float64(v * xr[1])
				s2 += float64(v * xr[2])
				s3 += float64(v * xr[3])
			}
			yRow[c], yRow[c+1], yRow[c+2], yRow[c+3] = s0, s1, s2, s3
		}
		for ; c < k; c++ {
			var s float64
			for p := p0; p < p1; p++ {
				s += float64(data[p] * x[int(col[p])*k+c])
			}
			yRow[c] = s
		}
	}
}

func checkSpMMShape(rows, cols int, y, x []float64, k int) {
	if k <= 0 {
		panic(fmt.Sprintf("sparse: SpMM block width %d, want > 0", k))
	}
	if len(y) != rows*k {
		panic(fmt.Sprintf("sparse: SpMM output length %d, want %d", len(y), rows*k))
	}
	if len(x) != cols*k {
		panic(fmt.Sprintf("sparse: SpMM input length %d, want %d", len(x), cols*k))
	}
}
