package sparse

import "fmt"

// DIA stores a matrix by diagonals: Offsets lists the stored diagonals
// (0 = main diagonal, positive = super-diagonals, negative = sub-diagonals,
// ascending) and Data holds one stride-long row per diagonal, indexed by the
// matrix row, so Data[d*stride+i] == A[i, i+Offsets[d]]. Positions outside
// the matrix are zero padding; the padding is counted by Bytes but not NNZ.
type DIA struct {
	rows, cols int
	nnz        int
	Offsets    []int
	Data       []float64 // len == len(Offsets) * stride, stride == rows
}

// NewDIA builds a DIA matrix from raw arrays. offsets must be strictly
// ascending and within (-rows, cols); data must have rows entries per
// diagonal, with zeros in positions falling outside the matrix. nnz is
// recomputed as the count of nonzero stored values inside the matrix bounds.
func NewDIA(rows, cols int, offsets []int, data []float64) (*DIA, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	if len(data) != len(offsets)*rows {
		return nil, fmt.Errorf("sparse: DIA data length %d, want %d diagonals x %d rows", len(data), len(offsets), rows)
	}
	prev := -rows // one below the lowest legal offset
	for _, k := range offsets {
		if k <= -rows || k >= cols {
			return nil, fmt.Errorf("sparse: DIA offset %d outside (-%d, %d)", k, rows, cols)
		}
		if k <= prev {
			return nil, fmt.Errorf("sparse: DIA offsets not strictly ascending at %d", k)
		}
		prev = k
	}
	m := &DIA{rows: rows, cols: cols, Offsets: offsets, Data: data}
	for d, k := range offsets {
		lo, hi := diagRowRange(rows, cols, k)
		for i := lo; i < hi; i++ {
			if data[d*rows+i] != 0 {
				m.nnz++
			}
		}
	}
	return m, nil
}

// diagRowRange returns the half-open row range [lo, hi) of matrix rows that
// diagonal k intersects in an rows x cols matrix.
func diagRowRange(rows, cols, k int) (lo, hi int) {
	lo = 0
	if k < 0 {
		lo = -k
	}
	hi = rows
	if cols-k < hi {
		hi = cols - k
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Format implements Matrix.
func (m *DIA) Format() Format { return FmtDIA }

// Dims implements Matrix.
func (m *DIA) Dims() (int, int) { return m.rows, m.cols }

// NNZ implements Matrix.
func (m *DIA) NNZ() int { return m.nnz }

// NumDiags returns the number of stored diagonals.
func (m *DIA) NumDiags() int { return len(m.Offsets) }

// Bytes implements Matrix.
func (m *DIA) Bytes() int64 {
	return int64(len(m.Offsets))*8 + int64(len(m.Data))*8
}

// diaTileRows is the row tile DIA's SpMV sweeps every diagonal over. Its y
// tile is 16 KiB, which stays in L1 while each diagonal's segment streams
// through it, so y leaves and enters the core once per call rather than once
// per diagonal: the kernel moves the 8 bytes of Data per stored entry plus x
// and y once, where a whole-range sweep per diagonal moves up to 32.
const diaTileRows = 2048

// spmvRange implements kernel: y = A*x over rows [lo, hi), one row tile at
// a time. It zeroes the tile, then accumulates each diagonal's segment of
// it in ascending offset order — the paper's Figure 3 kernel, contiguous on
// Data, x and y with no index loads, blocked for the cache. Every row is
// summed in the same order wherever a tile or a worker's range begins.
func (m *DIA) spmvRange(y, x []float64, lo, hi int) {
	for tlo := lo; tlo < hi; tlo += diaTileRows {
		thi := min(tlo+diaTileRows, hi)
		clear(y[tlo:thi])
		for d, k := range m.Offsets {
			dlo, dhi := diagRowRange(m.rows, m.cols, k)
			a, b := max(dlo, tlo), min(dhi, thi)
			if a >= b {
				continue
			}
			base := d * m.rows
			diaAccum(y[a:b], m.Data[base+a:base+b], x[a+k:b+k])
		}
	}
}

// SpMV implements Matrix.
func (m *DIA) SpMV(y, x []float64) { spmv(m, y, x, false) }

// SpMVParallel implements Matrix, splitting the rows evenly among the team.
func (m *DIA) SpMVParallel(y, x []float64) { spmv(m, y, x, true) }

// plan and partition implement kernel: rows, split evenly so each worker
// tiles its own slice of y; splitting rows rather than whole tiles keeps
// every worker busy on a matrix of only a tile or two.
func (m *DIA) plan() (units, slots int) { return m.rows, len(m.Data) }
func (m *DIA) partition() [][2]int      { return nil }
