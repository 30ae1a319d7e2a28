package sparse

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// CSR stores a matrix in compressed sparse row format: Ptr[i]..Ptr[i+1]
// delimit row i's entries in Col and Data. Column indices within each row
// are sorted ascending. CSR is the default format applications start from
// and the hub every conversion goes through.
type CSR struct {
	rows, cols int
	Ptr        []int
	Col        []int32
	Data       []float64

	// rowRanges caches the nnz-balanced row partition used by the parallel
	// kernel; it is computed once at construction since the matrix is
	// immutable afterwards.
	rowRanges [][2]int
}

// NewCSR builds a CSR matrix from raw arrays, validating the structure:
// dimensions CheckDims accepts, a monotone Ptr within [0, nnz] (each row's
// end is bounded before its entries are read), in-range sorted column
// indices per row. Any arrays are safe to hand it, arrays decoded off the
// network included. The slices are retained, not copied; callers must not
// mutate them afterwards.
func NewCSR(rows, cols int, ptr []int, col []int32, data []float64) (*CSR, error) {
	if err := CheckDims(rows, cols); err != nil {
		return nil, err
	}
	if len(ptr) != rows+1 {
		return nil, fmt.Errorf("sparse: CSR ptr length %d, want %d", len(ptr), rows+1)
	}
	if ptr[0] != 0 {
		return nil, fmt.Errorf("sparse: CSR ptr[0] = %d, want 0", ptr[0])
	}
	if len(col) != len(data) {
		return nil, fmt.Errorf("sparse: CSR col/data lengths differ: %d vs %d", len(col), len(data))
	}
	if ptr[rows] != len(data) {
		return nil, fmt.Errorf("sparse: CSR ptr[rows] = %d, want nnz %d", ptr[rows], len(data))
	}
	for i := 0; i < rows; i++ {
		if ptr[i] > ptr[i+1] {
			return nil, fmt.Errorf("sparse: CSR ptr not monotone at row %d", i)
		}
		if ptr[i+1] > len(col) {
			return nil, fmt.Errorf("sparse: CSR ptr[%d] = %d past nnz %d", i+1, ptr[i+1], len(col))
		}
		prev := int32(-1)
		for k := ptr[i]; k < ptr[i+1]; k++ {
			c := col[k]
			if c < 0 || int(c) >= cols {
				return nil, fmt.Errorf("sparse: CSR column %d out of range in row %d", c, i)
			}
			if c <= prev {
				return nil, fmt.Errorf("sparse: CSR columns not strictly ascending in row %d", i)
			}
			prev = c
		}
	}
	return newCSR(rows, cols, ptr, col, data), nil
}

// CheckDims refuses dimensions no matrix here can have: negative ones, and
// ones past the int32 range of the column (and COO row) indices.
func CheckDims(rows, cols int) error {
	switch {
	case rows < 0 || cols < 0:
		return fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	case rows > math.MaxInt32 || cols > math.MaxInt32:
		return fmt.Errorf("sparse: dimensions %dx%d exceed the int32 index range", rows, cols)
	}
	return nil
}

// newCSR wraps arrays already known to be canonical — NewCSR has just checked
// them, or the assembler has just built them — and caches the row partition.
func newCSR(rows, cols int, ptr []int, col []int32, data []float64) *CSR {
	m := &CSR{rows: rows, cols: cols, Ptr: ptr, Col: col, Data: data}
	m.rowRanges = parallel.PartitionByWeight(rows, parallel.Workers(), ptr)
	return m
}

// Format implements Matrix.
func (m *CSR) Format() Format { return FmtCSR }

// Dims implements Matrix.
func (m *CSR) Dims() (int, int) { return m.rows, m.cols }

// NNZ implements Matrix.
func (m *CSR) NNZ() int { return len(m.Data) }

// Bytes implements Matrix.
func (m *CSR) Bytes() int64 {
	return int64(len(m.Ptr))*8 + int64(len(m.Col))*4 + int64(len(m.Data))*8
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.Ptr[i+1] - m.Ptr[i] }

// plan and partition implement kernel: rows, in contiguous chunks of about
// equal nonzero counts (not row counts) cut once at construction, so a few
// pathologically dense rows do not serialize the kernel.
func (m *CSR) plan() (units, slots int) { return m.rows, len(m.Data) }
func (m *CSR) partition() [][2]int      { return m.rowRanges }

// spmvRange implements kernel: y = A*x over rows [lo, hi).
func (m *CSR) spmvRange(y, x []float64, lo, hi int) {
	if vectorOn.Load() {
		m.spmvRowsVector(y, x, lo, hi)
		return
	}
	m.spmvRowsGeneric(y, x, lo, hi)
}

// spmvRowsGeneric is the pure-Go kernel. The inner loop is unrolled by 4
// into independent partial sums: Go's compiler does not auto-vectorize, so
// breaking the single-accumulator dependency chain is what buys
// instruction-level parallelism on the gather that dominates this kernel.
func (m *CSR) spmvRowsGeneric(y, x []float64, lo, hi int) {
	col, data := m.Col, m.Data
	for i := lo; i < hi; i++ {
		k, end := m.Ptr[i], m.Ptr[i+1]
		var s0, s1, s2, s3 float64
		for ; k+4 <= end; k += 4 {
			s0 += data[k] * x[col[k]]
			s1 += data[k+1] * x[col[k+1]]
			s2 += data[k+2] * x[col[k+2]]
			s3 += data[k+3] * x[col[k+3]]
		}
		sum := (s0 + s1) + (s2 + s3)
		for ; k < end; k++ {
			sum += data[k] * x[col[k]]
		}
		y[i] = sum
	}
}

// spmvRowsVector dispatches rows to the AVX2 gather-dot kernel; rows too
// short to amortize the call stay on the scalar loop.
func (m *CSR) spmvRowsVector(y, x []float64, lo, hi int) {
	col, data := m.Col, m.Data
	for i := lo; i < hi; i++ {
		k, end := m.Ptr[i], m.Ptr[i+1]
		if end-k >= vecMinRow {
			y[i] = csrRowDot(col[k:end], data[k:end], x)
			continue
		}
		var sum float64
		for ; k < end; k++ {
			sum += data[k] * x[col[k]]
		}
		y[i] = sum
	}
}

// SpMV implements Matrix: the classic row-wise scalar CSR kernel.
func (m *CSR) SpMV(y, x []float64) { spmv(m, y, x, false) }

// SpMVParallel implements Matrix over the nnz-balanced row chunks.
func (m *CSR) SpMVParallel(y, x []float64) { spmv(m, y, x, true) }

// Transpose returns the transposed matrix in CSR form using a counting pass
// followed by a scatter pass (the standard O(nnz + n) algorithm).
func (m *CSR) Transpose() *CSR {
	nnz := m.NNZ()
	tptr := make([]int, m.cols+1)
	for _, c := range m.Col {
		tptr[c+1]++
	}
	for i := 0; i < m.cols; i++ {
		tptr[i+1] += tptr[i]
	}
	tcol := make([]int32, nnz)
	tdata := make([]float64, nnz)
	next := make([]int, m.cols)
	copy(next, tptr[:m.cols])
	for i := 0; i < m.rows; i++ {
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			c := m.Col[k]
			pos := next[c]
			next[c]++
			tcol[pos] = int32(i)
			tdata[pos] = m.Data[k]
		}
	}
	t, err := NewCSR(m.cols, m.rows, tptr, tcol, tdata)
	if err != nil {
		// Construction from a valid CSR cannot fail; a failure means this
		// matrix's invariants were violated by external mutation.
		panic("sparse: Transpose produced invalid CSR: " + err.Error())
	}
	return t
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c, err := NewCSR(m.rows, m.cols,
		append([]int(nil), m.Ptr...),
		append([]int32(nil), m.Col...),
		append([]float64(nil), m.Data...))
	if err != nil {
		panic("sparse: Clone produced invalid CSR: " + err.Error())
	}
	return c
}

// At returns the value at (i, j), zero if not stored. Binary search over the
// sorted row. Intended for tests and small-scale inspection, not kernels.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) outside %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.Ptr[i], m.Ptr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(m.Col[mid]) < j:
			lo = mid + 1
		case int(m.Col[mid]) > j:
			hi = mid
		default:
			return m.Data[mid]
		}
	}
	return 0
}

// Diag returns the matrix diagonal as a dense vector (zeros where no entry
// is stored). The Jacobi smoother and preconditioned solvers extract this
// once per solve, so it scans each sorted row linearly and stops at the
// first column >= i: typical rows (banded, FEM-like) hit the diagonal
// within a few entries, and the O(nnz) worst case still beats a binary
// search per row on the short rows that dominate real matrices.
func (m *CSR) Diag() []float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			c := int(m.Col[k])
			if c >= i {
				if c == i {
					d[i] = m.Data[k]
				}
				break
			}
		}
	}
	return d
}

// MaxRowNNZ returns the maximum number of stored entries in any row
// (0 for an empty matrix).
func (m *CSR) MaxRowNNZ() int {
	max := 0
	for i := 0; i < m.rows; i++ {
		if n := m.RowNNZ(i); n > max {
			max = n
		}
	}
	return max
}
