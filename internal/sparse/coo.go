package sparse

import "repro/internal/parallel"

// COO stores a matrix in coordinate format: three parallel arrays of row
// indices, column indices, and values. Entries are kept sorted by (row, col)
// with duplicates summed, which NewCOO enforces; the SpMV kernels and the
// conversions rely on that ordering.
type COO struct {
	rows, cols int
	Row        []int32
	Col        []int32
	Data       []float64
}

// NewCOO builds a COO matrix from the given triplets. The inputs are copied,
// sorted by (row, col) and duplicate coordinates are summed in input order
// (CSRFromTriplets does the assembly and documents it). Entries with a zero
// value are kept (some generators emit explicit zeros, as SuiteSparse files
// do). Returns an error on inconsistent lengths or out-of-range indices.
func NewCOO(rows, cols int, row, col []int32, data []float64) (*COO, error) {
	ptr, ccol, cdata, err := assembleTriplets(rows, cols, row, col, data)
	if err != nil {
		return nil, err
	}
	crow := make([]int32, len(ccol))
	for i := 0; i < rows; i++ {
		for k := ptr[i]; k < ptr[i+1]; k++ {
			crow[k] = int32(i)
		}
	}
	return &COO{rows: rows, cols: cols, Row: crow, Col: ccol, Data: cdata}, nil
}

// Format implements Matrix.
func (m *COO) Format() Format { return FmtCOO }

// Dims implements Matrix.
func (m *COO) Dims() (int, int) { return m.rows, m.cols }

// NNZ implements Matrix.
func (m *COO) NNZ() int { return len(m.Data) }

// Bytes implements Matrix.
func (m *COO) Bytes() int64 {
	return int64(len(m.Row))*4 + int64(len(m.Col))*4 + int64(len(m.Data))*8
}

// SpMV implements Matrix. The triplet scan accumulates per-row partial sums
// exploiting the sorted order, mirroring the scalar COO kernel in the
// paper's Figure 3.
func (m *COO) SpMV(y, x []float64) { spmv(m, y, x, false) }

// SpMVParallel implements Matrix over runs of entries cut on row boundaries.
func (m *COO) SpMVParallel(y, x []float64) { spmv(m, y, x, true) }

// plan and partition implement kernel: entries, cut into one row-aligned
// run per worker (rowRuns) so no row is shared between workers.
func (m *COO) plan() (units, slots int) { return len(m.Data), len(m.Data) }
func (m *COO) partition() [][2]int      { return m.rowRuns(parallel.Workers()) }

// spmvRange implements kernel for a run of entries that starts and ends on
// a row boundary: it zeroes the rows the run owns and adds its entries in
// storage order, exactly as the whole-matrix scan sums them.
func (m *COO) spmvRange(y, x []float64, klo, khi int) {
	lo, hi := m.runRows(klo, khi)
	clear(y[lo:hi])
	m.accum(y, x, klo, khi)
}

// accum adds entries [lo, hi) into y in storage order: y[Row[k]] +=
// Data[k]*x[Col[k]].
func (m *COO) accum(y, x []float64, lo, hi int) {
	row, col := m.Row[lo:hi], m.Col[lo:hi]
	for k, v := range m.Data[lo:hi] {
		y[row[k]] += v * x[col[k]]
	}
}

// rowRuns splits the entries into at most parts runs of near-equal length,
// each cut moved forward to the start of a row, so every row's entries sit
// in one run.
func (m *COO) rowRuns(parts int) [][2]int {
	nnz := len(m.Data)
	runs := make([][2]int, 0, parts)
	lo := 0
	for w := 1; w <= parts && lo < nnz; w++ {
		hi := nnz
		if w < parts {
			hi = max(w*nnz/parts, lo)
			for hi > 0 && hi < nnz && m.Row[hi] == m.Row[hi-1] {
				hi++
			}
		}
		if hi > lo {
			runs = append(runs, [2]int{lo, hi})
			lo = hi
		}
	}
	return runs
}

// runRows returns the rows [lo, hi) a run of entries owns: from its first
// entry's row (0 for the first run) up to the next run's first row (rows
// for the last), so the empty rows between two runs belong to the later one
// and every row belongs to exactly one run.
func (m *COO) runRows(klo, khi int) (lo, hi int) {
	lo, hi = 0, m.rows
	if klo > 0 {
		lo = int(m.Row[klo])
	}
	if khi < len(m.Data) {
		hi = int(m.Row[khi])
	}
	return lo, hi
}

// Clone returns a deep copy of the matrix.
func (m *COO) Clone() *COO {
	return &COO{
		rows: m.rows,
		cols: m.cols,
		Row:  append([]int32(nil), m.Row...),
		Col:  append([]int32(nil), m.Col...),
		Data: append([]float64(nil), m.Data...),
	}
}
