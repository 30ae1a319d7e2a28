package sparse

import (
	"fmt"

	"repro/internal/parallel"
)

// HYB stores a matrix as an ELL part holding the first EllWidth entries of
// every row plus a COO part holding the overflow of long rows. This is the
// CUSP hybrid format: the ELL width is chosen so the regular bulk of the
// matrix gets the fast rectangular kernel while a few long rows do not blow
// up the padding.
type HYB struct {
	rows, cols int
	Ell        *ELL
	Coo        *COO
}

// NewHYB wraps an ELL part and a COO overflow part into a hybrid matrix.
// Both parts must have identical dimensions.
func NewHYB(ell *ELL, coo *COO) (*HYB, error) {
	er, ec := ell.Dims()
	cr, cc := coo.Dims()
	if er != cr || ec != cc {
		return nil, fmt.Errorf("sparse: HYB part dimensions differ: ELL %dx%d vs COO %dx%d", er, ec, cr, cc)
	}
	return &HYB{rows: er, cols: ec, Ell: ell, Coo: coo}, nil
}

// Format implements Matrix.
func (m *HYB) Format() Format { return FmtHYB }

// Dims implements Matrix.
func (m *HYB) Dims() (int, int) { return m.rows, m.cols }

// NNZ implements Matrix.
func (m *HYB) NNZ() int { return m.Ell.NNZ() + m.Coo.NNZ() }

// Bytes implements Matrix.
func (m *HYB) Bytes() int64 { return m.Ell.Bytes() + m.Coo.Bytes() }

// EllWidth returns the width of the ELL part.
func (m *HYB) EllWidth() int { return m.Ell.Width }

// SpMV implements Matrix: ELL part first (writes y), then COO overflow
// accumulates on top.
func (m *HYB) SpMV(y, x []float64) {
	checkSpMVDims(m.rows, m.cols, y, x)
	m.Ell.SpMV(y, x)
	m.Coo.accum(y, x, 0, m.Coo.NNZ())
}

// SpMVParallel implements Matrix. The ELL part runs fully parallel; the COO
// overflow is typically tiny, so it is added serially afterwards unless it is
// itself large, when the team adds it in place over runs cut on row
// boundaries. Either way each row's overflow lands on its ELL sum in storage
// order, as in SpMV, so the two agree bit for bit.
func (m *HYB) SpMVParallel(y, x []float64) {
	checkSpMVDims(m.rows, m.cols, y, x)
	m.Ell.SpMVParallel(y, x)
	nnz := m.Coo.NNZ()
	if nnz < parallel.MinParallelWork {
		m.Coo.accum(y, x, 0, nnz)
		return
	}
	parallel.ForRanges(m.Coo.rowRuns(parallel.Workers()), func(klo, khi int) {
		m.Coo.accum(y, x, klo, khi)
	})
}
