package sparse

import (
	"fmt"

	"repro/internal/parallel"
)

// BSR stores a matrix in block compressed sparse row format with square
// BlockSize x BlockSize dense blocks. RowPtr/ColInd index block rows and
// block columns; Data holds the dense blocks row-major, so block b occupies
// Data[b*bs*bs : (b+1)*bs*bs]. Matrix dimensions need not be multiples of
// BlockSize: edge blocks are zero-padded (the padding is stored but not
// counted by NNZ).
type BSR struct {
	rows, cols int
	nnz        int
	BlockSize  int
	RowPtr     []int   // len == blockRows+1
	ColInd     []int32 // block column index per block
	Data       []float64

	blockRanges [][2]int // cached nnz-balanced block-row partition
}

// NewBSR builds a BSR matrix from raw arrays and validates the block
// structure. nnz is recomputed as the number of nonzero values stored inside
// the true matrix bounds.
func NewBSR(rows, cols, blockSize int, rowPtr []int, colInd []int32, data []float64) (*BSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("sparse: BSR block size %d, want > 0", blockSize)
	}
	brows := (rows + blockSize - 1) / blockSize
	bcols := (cols + blockSize - 1) / blockSize
	if len(rowPtr) != brows+1 {
		return nil, fmt.Errorf("sparse: BSR rowPtr length %d, want %d", len(rowPtr), brows+1)
	}
	if rowPtr[0] != 0 {
		return nil, fmt.Errorf("sparse: BSR rowPtr[0] = %d, want 0", rowPtr[0])
	}
	nblocks := rowPtr[brows]
	if len(colInd) != nblocks {
		return nil, fmt.Errorf("sparse: BSR colInd length %d, want %d blocks", len(colInd), nblocks)
	}
	if len(data) != nblocks*blockSize*blockSize {
		return nil, fmt.Errorf("sparse: BSR data length %d, want %d", len(data), nblocks*blockSize*blockSize)
	}
	for bi := 0; bi < brows; bi++ {
		if rowPtr[bi] > rowPtr[bi+1] {
			return nil, fmt.Errorf("sparse: BSR rowPtr not monotone at block row %d", bi)
		}
		prev := int32(-1)
		for b := rowPtr[bi]; b < rowPtr[bi+1]; b++ {
			c := colInd[b]
			if c < 0 || int(c) >= bcols {
				return nil, fmt.Errorf("sparse: BSR block column %d out of range in block row %d", c, bi)
			}
			if c <= prev {
				return nil, fmt.Errorf("sparse: BSR block columns not strictly ascending in block row %d", bi)
			}
			prev = c
		}
	}
	m := &BSR{rows: rows, cols: cols, BlockSize: blockSize, RowPtr: rowPtr, ColInd: colInd, Data: data}
	bs := blockSize
	for bi := 0; bi < brows; bi++ {
		for b := rowPtr[bi]; b < rowPtr[bi+1]; b++ {
			bj := int(colInd[b])
			for ii := 0; ii < bs; ii++ {
				for jj := 0; jj < bs; jj++ {
					v := data[b*bs*bs+ii*bs+jj]
					if v == 0 {
						continue
					}
					if bi*bs+ii >= rows || bj*bs+jj >= cols {
						return nil, fmt.Errorf("sparse: BSR nonzero in edge padding of block %d", b)
					}
					m.nnz++
				}
			}
		}
	}
	m.blockRanges = parallel.PartitionByWeight(brows, parallel.Workers(), rowPtr)
	return m, nil
}

// Format implements Matrix.
func (m *BSR) Format() Format { return FmtBSR }

// Dims implements Matrix.
func (m *BSR) Dims() (int, int) { return m.rows, m.cols }

// NNZ implements Matrix.
func (m *BSR) NNZ() int { return m.nnz }

// NumBlocks returns the number of stored dense blocks.
func (m *BSR) NumBlocks() int { return len(m.ColInd) }

// BlockRows returns the number of block rows.
func (m *BSR) BlockRows() int { return len(m.RowPtr) - 1 }

// Bytes implements Matrix.
func (m *BSR) Bytes() int64 {
	return int64(len(m.RowPtr))*8 + int64(len(m.ColInd))*4 + int64(len(m.Data))*8
}

// FillRatio returns stored slots (blocks * bs^2) per true nonzero.
func (m *BSR) FillRatio() float64 {
	if m.nnz == 0 {
		return 0
	}
	return float64(len(m.Data)) / float64(m.nnz)
}

// SpMV implements Matrix: block-row loop with a dense bs x bs kernel per
// block. Edge blocks (bottom/right fringe) take the guarded path.
func (m *BSR) SpMV(y, x []float64) {
	checkSpMVDims(m.rows, m.cols, y, x)
	m.spmvRange(y, x, 0, m.BlockRows())
}

func (m *BSR) spmvRange(y, x []float64, blo, bhi int) {
	bs := m.BlockSize
	for bi := blo; bi < bhi; bi++ {
		rbase := bi * bs
		rlim := bs
		if rbase+rlim > m.rows {
			rlim = m.rows - rbase
		}
		// Accumulate the block row into a small stack buffer.
		var acc [16]float64
		sums := acc[:0]
		if rlim <= len(acc) {
			sums = acc[:rlim]
			for i := range sums {
				sums[i] = 0
			}
		} else {
			sums = make([]float64, rlim)
		}
		for b := m.RowPtr[bi]; b < m.RowPtr[bi+1]; b++ {
			cbase := int(m.ColInd[b]) * bs
			clim := bs
			if cbase+clim > m.cols {
				clim = m.cols - cbase
			}
			blk := m.Data[b*bs*bs : (b+1)*bs*bs]
			for ii := 0; ii < rlim; ii++ {
				var s float64
				row := blk[ii*bs : ii*bs+clim]
				xb := x[cbase : cbase+clim]
				for jj, v := range row {
					s += v * xb[jj]
				}
				sums[ii] += s
			}
		}
		copy(y[rbase:rbase+rlim], sums)
	}
}

// SpMVParallel implements Matrix, partitioning block rows by block count so
// dense block rows do not serialize the kernel.
func (m *BSR) SpMVParallel(y, x []float64) {
	checkSpMVDims(m.rows, m.cols, y, x)
	if len(m.blockRanges) <= 1 || len(m.Data) < parallel.MinParallelWork {
		m.SpMV(y, x)
		return
	}
	parallel.ForRanges(m.blockRanges, func(lo, hi int) {
		m.spmvRange(y, x, lo, hi)
	})
}
