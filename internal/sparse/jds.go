package sparse

import (
	"fmt"
	"sync"

	"repro/internal/parallel"
)

// JDS stores a matrix in jagged diagonal storage: rows are permuted into
// descending nonzero-count order and their entries regrouped into "jagged
// diagonals" — diagonal j holds the j-th stored entry of every row that has
// one. Because row lengths descend, diagonal j's entries pack contiguously
// over storage rows 0..count_j-1 with no padding at all: JDS keeps ELL's
// long-stride, gather-friendly access pattern on matrices whose skewed row
// lengths would blow ELL's padding budget, at the price of a permuted
// result vector.
//
// Layout: storage row r holds original row Perm[r]. Diagonal j's entries
// live at Col/Data[DiagPtr[j] : DiagPtr[j+1]], indexed by storage row —
// entry (r, j) is at DiagPtr[j]+r. Diagonal counts are non-increasing, and
// within each storage row columns ascend over j (inherited from CSR).
type JDS struct {
	rows, cols int
	Perm       []int32 // storage row -> original row (desc length, ties by ascending row)
	DiagPtr    []int   // diagonal start offsets; len = NumDiags()+1
	Col        []int32
	Data       []float64

	// permPtr are prefix sums of storage-row lengths: the weight array for
	// nnz-balanced partitioning of storage rows (sorted desc, so the first
	// ranges are the dense ones). permRanges caches the parallel partition,
	// scratch pools the permuted result vector. The pool is its own object:
	// the runtime lists every pool that holds items until the next
	// collection, and a pool embedded here would keep a dropped matrix's
	// whole layout live through that collection, doubling into the heap goal.
	permPtr    []int
	permRanges [][2]int
	scratch    *sync.Pool
}

// NewJDS builds a JDS matrix from raw arrays, validating the layout: perm a
// permutation, monotone DiagPtr with non-increasing diagonal counts,
// in-range ascending columns per storage row.
func NewJDS(rows, cols int, perm []int32, diagPtr []int, col []int32, data []float64) (*JDS, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	if len(perm) != rows {
		return nil, fmt.Errorf("sparse: JDS perm length %d, want %d", len(perm), rows)
	}
	seen := make([]bool, rows)
	for _, p := range perm {
		if p < 0 || int(p) >= rows || seen[p] {
			return nil, fmt.Errorf("sparse: JDS perm is not a permutation (row %d)", p)
		}
		seen[p] = true
	}
	if len(diagPtr) < 1 || diagPtr[0] != 0 {
		return nil, fmt.Errorf("sparse: JDS diagPtr must start at 0")
	}
	if len(col) != len(data) {
		return nil, fmt.Errorf("sparse: JDS col/data lengths differ: %d vs %d", len(col), len(data))
	}
	ndiags := len(diagPtr) - 1
	prev := rows + 1
	for j := 0; j < ndiags; j++ {
		cnt := diagPtr[j+1] - diagPtr[j]
		if cnt < 0 || cnt > rows {
			return nil, fmt.Errorf("sparse: JDS diagonal %d count %d out of range", j, cnt)
		}
		if cnt > prev {
			return nil, fmt.Errorf("sparse: JDS diagonal counts increase at %d (%d after %d)", j, cnt, prev)
		}
		prev = cnt
	}
	if diagPtr[ndiags] != len(data) {
		return nil, fmt.Errorf("sparse: JDS diagPtr end %d, want nnz %d", diagPtr[ndiags], len(data))
	}
	m := &JDS{rows: rows, cols: cols, Perm: perm, DiagPtr: diagPtr, Col: col, Data: data}
	for r := 0; r < rows; r++ {
		prevCol := int32(-1)
		for j := 0; j < ndiags; j++ {
			if diagPtr[j+1]-diagPtr[j] <= r {
				break
			}
			c := col[diagPtr[j]+r]
			if c < 0 || int(c) >= cols {
				return nil, fmt.Errorf("sparse: JDS column %d out of range in storage row %d", c, r)
			}
			if c <= prevCol {
				return nil, fmt.Errorf("sparse: JDS columns not strictly ascending in storage row %d", r)
			}
			prevCol = c
		}
	}
	m.finish()
	return m, nil
}

// finish computes the cached partition state shared by both constructors.
func (m *JDS) finish() {
	ndiags := m.NumDiags()
	m.permPtr = make([]int, m.rows+1)
	// Storage-row length = number of diagonals still covering row r. Counts
	// are non-increasing, so n only ever decreases and the pass is
	// O(rows + ndiags).
	n := ndiags
	for r := 0; r < m.rows; r++ {
		for n > 0 && m.DiagPtr[n]-m.DiagPtr[n-1] <= r {
			n--
		}
		m.permPtr[r+1] = m.permPtr[r] + n
	}
	m.permRanges = parallel.PartitionByWeight(m.rows, parallel.Workers(), m.permPtr)
	rows := m.rows
	m.scratch = &sync.Pool{New: func() any {
		s := make([]float64, rows)
		return &s
	}}
}

// NewJDSFromCSR converts a CSR matrix to JDS. The permutation is a counting
// sort by descending row length with ties broken by ascending row id, so
// the layout is deterministic; the fill pass checks the columns as it copies
// them and parallelizes over storage-row ranges since entry (r, j) has the
// unique destination DiagPtr[j]+r.
func NewJDSFromCSR(a *CSR) (*JDS, error) {
	rows, cols := a.Dims()
	nnz := a.NNZ()
	m := &JDS{rows: rows, cols: cols}
	lens := make([]int, rows)
	maxLen := 0
	for i := range lens {
		lens[i] = a.RowNNZ(i)
		if lens[i] > maxLen {
			maxLen = lens[i]
		}
	}
	count := make([]int, maxLen+1)
	for _, l := range lens {
		count[l]++
	}
	offset := make([]int, maxLen+1)
	off := 0
	for l := maxLen; l >= 0; l-- {
		offset[l] = off
		off += count[l]
	}
	m.Perm = make([]int32, rows)
	for i := 0; i < rows; i++ {
		m.Perm[offset[lens[i]]] = int32(i)
		offset[lens[i]]++
	}
	m.DiagPtr = make([]int, maxLen+1)
	short := 0 // rows with length <= j
	for j := 0; j < maxLen; j++ {
		short += count[j]
		m.DiagPtr[j+1] = m.DiagPtr[j] + (rows - short)
	}
	if m.DiagPtr[maxLen] != nnz {
		return nil, fmt.Errorf("sparse: JDS diagonal counts sum to %d, want nnz %d", m.DiagPtr[maxLen], nnz)
	}
	m.Col = make([]int32, nnz)
	m.Data = make([]float64, nnz)
	m.finish()
	err := checkedFill(parallel.PartitionByWeight(rows, convParts(nnz), m.permPtr), func(_, lo, hi int) error {
		for r := lo; r < hi; r++ {
			orig := int(m.Perm[r])
			rcol := a.Col[a.Ptr[orig]:a.Ptr[orig+1]]
			rdata := a.Data[a.Ptr[orig]:a.Ptr[orig+1]]
			prev := int32(-1)
			for j, c := range rcol {
				if c <= prev || int(c) >= cols {
					return colOrderError(orig, c, cols)
				}
				prev = c
				pos := m.DiagPtr[j] + r
				m.Col[pos] = c
				m.Data[pos] = rdata[j]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// ToCSR converts back to CSR, undoing the row permutation.
func (m *JDS) ToCSR() (*CSR, error) {
	ptr := make([]int, m.rows+1)
	for r := 0; r < m.rows; r++ {
		ptr[int(m.Perm[r])+1] = m.permPtr[r+1] - m.permPtr[r]
	}
	for i := 0; i < m.rows; i++ {
		ptr[i+1] += ptr[i]
	}
	col := make([]int32, m.NNZ())
	data := make([]float64, m.NNZ())
	for r := 0; r < m.rows; r++ {
		base := ptr[int(m.Perm[r])]
		n := m.permPtr[r+1] - m.permPtr[r]
		for j := 0; j < n; j++ {
			col[base+j] = m.Col[m.DiagPtr[j]+r]
			data[base+j] = m.Data[m.DiagPtr[j]+r]
		}
	}
	return NewCSR(m.rows, m.cols, ptr, col, data)
}

// Format implements Matrix.
func (m *JDS) Format() Format { return FmtJDS }

// Dims implements Matrix.
func (m *JDS) Dims() (int, int) { return m.rows, m.cols }

// NNZ implements Matrix.
func (m *JDS) NNZ() int { return len(m.Data) }

// NumDiags returns the number of jagged diagonals (the max row length).
func (m *JDS) NumDiags() int { return len(m.DiagPtr) - 1 }

// Bytes implements Matrix.
func (m *JDS) Bytes() int64 {
	return int64(len(m.Perm))*4 + int64(len(m.DiagPtr))*8 +
		int64(len(m.Col))*4 + int64(len(m.Data))*8
}

// SpMV implements Matrix: diagonal-major accumulation into a pooled
// permuted vector, then a gather back through Perm.
func (m *JDS) SpMV(y, x []float64) { spmv(m, y, x, false) }

// SpMVParallel implements Matrix over the nnz-balanced storage-row ranges.
func (m *JDS) SpMVParallel(y, x []float64) { spmv(m, y, x, true) }

// plan and partition implement kernel: storage rows, balanced by nonzero
// weight once at construction (the sorted lengths make the heavy rows lead).
func (m *JDS) plan() (units, slots int) { return m.rows, len(m.Data) }
func (m *JDS) partition() [][2]int      { return m.permRanges }

// spmvRange implements kernel: it computes the permuted result yp for
// storage rows [lo, hi) — for each jagged diagonal that still covers the
// range, one contiguous accumulation (vectorized by jdsAccum) — then
// scatters yp into y through the permutation. yp is the call's pooled
// scratch vector; ranges write disjoint segments of it and of y.
func (m *JDS) spmvRange(y, x, yp []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		yp[r] = 0
	}
	ndiags := m.NumDiags()
	for j := 0; j < ndiags; j++ {
		cnt := m.DiagPtr[j+1] - m.DiagPtr[j]
		if cnt <= lo {
			break // counts are non-increasing: later diagonals end before lo too
		}
		end := hi
		if cnt < end {
			end = cnt
		}
		base := m.DiagPtr[j]
		jdsAccum(m.Col[base+lo:base+end], m.Data[base+lo:base+end], x, yp[lo:end])
	}
	for r := lo; r < hi; r++ {
		y[m.Perm[r]] = yp[r]
	}
}
