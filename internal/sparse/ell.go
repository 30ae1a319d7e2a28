package sparse

import "fmt"

// ELLPad is the column index used to mark padding slots in ELL storage.
const ELLPad int32 = -1

// ELL stores a matrix in ELLPACK format: every row is padded to Width
// entries, giving rectangular Cols and Data arrays of rows*Width elements in
// row-major order. Padding slots have Col == ELLPad and Data == 0. Within
// each row, real entries come first (sorted by column), then padding.
type ELL struct {
	rows, cols int
	nnz        int
	Width      int
	Cols       []int32
	Data       []float64
}

// NewELL builds an ELL matrix from raw arrays, validating padding layout and
// index ranges.
func NewELL(rows, cols, width int, colIdx []int32, data []float64) (*ELL, error) {
	if rows < 0 || cols < 0 || width < 0 {
		return nil, fmt.Errorf("sparse: negative ELL shape %dx%d width %d", rows, cols, width)
	}
	if len(colIdx) != rows*width || len(data) != rows*width {
		return nil, fmt.Errorf("sparse: ELL array lengths %d/%d, want %d", len(colIdx), len(data), rows*width)
	}
	m := &ELL{rows: rows, cols: cols, Width: width, Cols: colIdx, Data: data}
	for i := 0; i < rows; i++ {
		padded := false
		prev := int32(-1)
		for j := 0; j < width; j++ {
			c := colIdx[i*width+j]
			if c == ELLPad {
				padded = true
				if data[i*width+j] != 0 {
					return nil, fmt.Errorf("sparse: ELL nonzero value in padding at row %d slot %d", i, j)
				}
				continue
			}
			if padded {
				return nil, fmt.Errorf("sparse: ELL real entry after padding at row %d slot %d", i, j)
			}
			if c < 0 || int(c) >= cols {
				return nil, fmt.Errorf("sparse: ELL column %d out of range in row %d", c, i)
			}
			if c <= prev {
				return nil, fmt.Errorf("sparse: ELL columns not strictly ascending in row %d", i)
			}
			prev = c
			m.nnz++
		}
	}
	return m, nil
}

// Format implements Matrix.
func (m *ELL) Format() Format { return FmtELL }

// Dims implements Matrix.
func (m *ELL) Dims() (int, int) { return m.rows, m.cols }

// NNZ implements Matrix.
func (m *ELL) NNZ() int { return m.nnz }

// Bytes implements Matrix.
func (m *ELL) Bytes() int64 {
	return int64(len(m.Cols))*4 + int64(len(m.Data))*8
}

// FillRatio returns the ratio of allocated slots (rows*Width) to real
// nonzeros; 1.0 means perfectly uniform rows. Infinite padding is reported
// for an empty matrix as 0.
func (m *ELL) FillRatio() float64 {
	if m.nnz == 0 {
		return 0
	}
	return float64(m.rows*m.Width) / float64(m.nnz)
}

// spmvRange implements kernel: y = A*x over rows [lo, hi). The generic
// loop's early break on padding is valid because padding is
// always trailing; the assembly kernel instead masks padded lanes out of
// its gathers, which only pays off once the width covers a 4-lane chunk.
func (m *ELL) spmvRange(y, x []float64, lo, hi int) {
	w := m.Width
	if w >= 4 && hi > lo && vectorOn.Load() {
		ellRowsAsm(&m.Cols[lo*w], &m.Data[lo*w], &x[0], &y[lo], w, hi-lo)
		return
	}
	for i := lo; i < hi; i++ {
		var sum float64
		base := i * w
		for j := 0; j < w; j++ {
			c := m.Cols[base+j]
			if c == ELLPad {
				break
			}
			sum += m.Data[base+j] * x[c]
		}
		y[i] = sum
	}
}

// SpMV implements Matrix: fixed-width row loop.
func (m *ELL) SpMV(y, x []float64) { spmv(m, y, x, false) }

// SpMVParallel implements Matrix, splitting the rows evenly among the team.
func (m *ELL) SpMVParallel(y, x []float64) { spmv(m, y, x, true) }

// plan and partition implement kernel: rows, split evenly, since ELL rows
// all cost the same by construction.
func (m *ELL) plan() (units, slots int) { return m.rows, len(m.Data) }
func (m *ELL) partition() [][2]int      { return nil }
