package sparse

import (
	"fmt"
	"slices"
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

// SpMV implements Matrix.
func (m *HYB) SpMV(y, x []float64) { spmv(m, y, x, false) }

// SpMVParallel implements Matrix, splitting the rows evenly among the team.
func (m *HYB) SpMVParallel(y, x []float64) { spmv(m, y, x, true) }

// plan and partition implement kernel: rows, which read both parts' slots
// and split evenly as ELL's do (the overflow is typically a small share).
func (m *HYB) plan() (units, slots int) { return m.rows, len(m.Ell.Data) + len(m.Coo.Data) }
func (m *HYB) partition() [][2]int      { return nil }

// spmvRange implements kernel: the ELL part writes rows [lo, hi), then
// those rows' overflow entries, found by binary search on the sorted
// Coo.Row, are added on top in storage order, as the whole-matrix pass adds
// them.
func (m *HYB) spmvRange(y, x, _ []float64, lo, hi int) {
	m.Ell.spmvRange(y, x, nil, lo, hi)
	klo, _ := slices.BinarySearch(m.Coo.Row, int32(lo))
	khi, _ := slices.BinarySearch(m.Coo.Row, int32(hi))
	m.Coo.accum(y, x, klo, khi)
}
