package sparse

import (
	"sync"

	"repro/internal/parallel"
)

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
func (m *COO) SpMV(y, x []float64) {
	checkSpMVDims(m.rows, m.cols, y, x)
	for i := range y {
		y[i] = 0
	}
	for k, v := range m.Data {
		y[m.Row[k]] += v * x[m.Col[k]]
	}
}

// SpMVParallel implements Matrix. The nonzeros are split into contiguous
// chunks; chunk boundaries may split a row, so each worker accumulates its
// boundary rows locally and the fix-up pass merges them, keeping the kernel
// race-free without atomics.
func (m *COO) SpMVParallel(y, x []float64) {
	checkSpMVDims(m.rows, m.cols, y, x)
	nnz := len(m.Data)
	p := parallel.Workers()
	if p <= 1 || nnz < parallel.MinParallelWork {
		m.SpMV(y, x)
		return
	}
	if p > nnz {
		p = nnz
	}
	parallel.For(m.rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = 0
		}
	})
	type edge struct {
		firstRow, lastRow int32
		firstSum, lastSum float64
		oneRow            bool
	}
	edges := make([]edge, p)
	chunk := (nnz + p - 1) / p
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			lo := w * chunk
			hi := lo + chunk
			if hi > nnz {
				hi = nnz
			}
			if lo >= hi {
				edges[w] = edge{firstRow: -1, lastRow: -1}
				return
			}
			first := m.Row[lo]
			last := m.Row[hi-1]
			var firstSum float64
			k := lo
			for ; k < hi && m.Row[k] == first; k++ {
				firstSum += m.Data[k] * x[m.Col[k]]
			}
			if k == hi {
				// The whole chunk is one row.
				edges[w] = edge{firstRow: first, lastRow: last, firstSum: firstSum, oneRow: true}
				return
			}
			var lastSum float64
			end := hi
			for end > k && m.Row[end-1] == last {
				end--
				lastSum += m.Data[end] * x[m.Col[end]]
			}
			// Interior rows are fully owned by this chunk: write directly.
			for i := k; i < end; i++ {
				y[m.Row[i]] += m.Data[i] * x[m.Col[i]]
			}
			edges[w] = edge{firstRow: first, lastRow: last, firstSum: firstSum, lastSum: lastSum}
		}(w)
	}
	wg.Wait()
	for _, e := range edges {
		if e.firstRow < 0 {
			continue
		}
		y[e.firstRow] += e.firstSum
		if !e.oneRow {
			y[e.lastRow] += e.lastSum
		}
	}
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
