package sparse

import (
	"fmt"
	"sort"

	"repro/internal/parallel"
)

// SELL-C-sigma parameters (Kreutzer et al., SIAM J. Sci. Comput. 2014).
// Rows are sorted by length inside windows of SELLSigma rows and grouped
// into slices of SELLC rows; each slice is padded only to its own maximum
// row length, which bounds ELL's padding blowup while keeping a
// rectangular, vectorizable layout. This format is not part of the paper's
// original set — it is the "easily extended to other formats" exercise the
// paper proposes, wired through the same selection machinery.
const (
	// SELLC is the slice height.
	SELLC = 8
	// SELLSigma is the sorting-window height (a multiple of SELLC).
	SELLSigma = 64
)

// SELL stores a matrix in SELL-C-sigma format. Slice s covers permuted
// rows [s*SELLC, min((s+1)*SELLC, rows)); its entries live at
// Data[SlicePtr[s] : SlicePtr[s+1]] laid out lane-major: element (r, j) of
// the slice (local row r, slot j) is at SlicePtr[s] + j*height + r where
// height is the slice's row count. Perm maps storage rows to original rows:
// storage row r holds original row Perm[r].
type SELL struct {
	rows, cols int
	nnz        int
	Perm       []int32 // storage row -> original row
	SliceWidth []int32 // max row length per slice
	SlicePtr   []int   // slice start offsets into Cols/Data
	Cols       []int32 // ELLPad marks padding
	Data       []float64
}

// Format implements Matrix.
func (m *SELL) Format() Format { return FmtSELL }

// Dims implements Matrix.
func (m *SELL) Dims() (int, int) { return m.rows, m.cols }

// NNZ implements Matrix.
func (m *SELL) NNZ() int { return m.nnz }

// NumSlices returns the number of row slices.
func (m *SELL) NumSlices() int { return len(m.SliceWidth) }

// Bytes implements Matrix.
func (m *SELL) Bytes() int64 {
	return int64(len(m.Perm))*4 + int64(len(m.SliceWidth))*4 +
		int64(len(m.SlicePtr))*8 + int64(len(m.Cols))*4 + int64(len(m.Data))*8
}

// FillRatio returns stored slots per true nonzero.
func (m *SELL) FillRatio() float64 {
	if m.nnz == 0 {
		return 0
	}
	return float64(len(m.Data)) / float64(m.nnz)
}

// NewSELLFromCSR converts a CSR matrix to SELL-C-sigma. All three passes
// parallelize on disjoint state: sigma windows sort independent Perm
// segments, slice widths touch independent slices (a serial prefix sum then
// places them), and the scatter-and-pad pass writes only inside each slice's
// own Cols/Data span. Every pass is deterministic (stable sorts, fixed
// offsets), so the layout is identical at any worker count.
func NewSELLFromCSR(a *CSR) (*SELL, error) {
	rows, cols := a.Dims()
	nnz := a.NNZ()
	m := &SELL{rows: rows, cols: cols, nnz: nnz}
	m.Perm = make([]int32, rows)
	for i := range m.Perm {
		m.Perm[i] = int32(i)
	}
	// Sort rows by descending length inside sigma windows.
	nwin := (rows + SELLSigma - 1) / SELLSigma
	parallel.ForRanges(parallel.EvenRanges(nwin, convParts(nnz)), func(wlo, whi int) {
		for wdx := wlo; wdx < whi; wdx++ {
			lo := wdx * SELLSigma
			hi := lo + SELLSigma
			if hi > rows {
				hi = rows
			}
			window := m.Perm[lo:hi]
			sort.SliceStable(window, func(x, y int) bool {
				return a.RowNNZ(int(window[x])) > a.RowNNZ(int(window[y]))
			})
		}
	})
	nslices := (rows + SELLC - 1) / SELLC
	m.SliceWidth = make([]int32, nslices)
	m.SlicePtr = make([]int, nslices+1)
	sliceRanges := parallel.EvenRanges(nslices, convParts(nnz))
	parallel.ForRanges(sliceRanges, func(slo, shi int) {
		for s := slo; s < shi; s++ {
			lo := s * SELLC
			hi := lo + SELLC
			if hi > rows {
				hi = rows
			}
			w := 0
			for r := lo; r < hi; r++ {
				if n := a.RowNNZ(int(m.Perm[r])); n > w {
					w = n
				}
			}
			m.SliceWidth[s] = int32(w)
			m.SlicePtr[s+1] = w * (hi - lo)
		}
	})
	for s := 0; s < nslices; s++ {
		m.SlicePtr[s+1] += m.SlicePtr[s]
	}
	total := m.SlicePtr[nslices]
	m.Cols = make([]int32, total)
	m.Data = make([]float64, total)
	parallel.ForRanges(sliceRanges, func(slo, shi int) {
		for s := slo; s < shi; s++ {
			lo := s * SELLC
			hi := lo + SELLC
			if hi > rows {
				hi = rows
			}
			height := hi - lo
			base := m.SlicePtr[s]
			w := int(m.SliceWidth[s])
			for r := lo; r < hi; r++ {
				orig := int(m.Perm[r])
				local := r - lo
				j := 0
				for k := a.Ptr[orig]; k < a.Ptr[orig+1]; j, k = j+1, k+1 {
					pos := base + j*height + local
					m.Cols[pos] = a.Col[k]
					m.Data[pos] = a.Data[k]
				}
				for ; j < w; j++ {
					m.Cols[base+j*height+local] = ELLPad
				}
			}
		}
	})
	return m, nil
}

// ToCSR converts back to CSR, undoing the row permutation.
func (m *SELL) ToCSR() (*CSR, error) {
	ptr := make([]int, m.rows+1)
	// First pass: count entries per original row.
	nslices := m.NumSlices()
	for s := 0; s < nslices; s++ {
		lo := s * SELLC
		hi := lo + SELLC
		if hi > m.rows {
			hi = m.rows
		}
		height := hi - lo
		base := m.SlicePtr[s]
		w := int(m.SliceWidth[s])
		for local := 0; local < height; local++ {
			orig := m.Perm[lo+local]
			n := 0
			for j := 0; j < w; j++ {
				if m.Cols[base+j*height+local] == ELLPad {
					break
				}
				n++
			}
			ptr[orig+1] = n
		}
	}
	for i := 0; i < m.rows; i++ {
		ptr[i+1] += ptr[i]
	}
	col := make([]int32, m.nnz)
	data := make([]float64, m.nnz)
	for s := 0; s < nslices; s++ {
		lo := s * SELLC
		hi := lo + SELLC
		if hi > m.rows {
			hi = m.rows
		}
		height := hi - lo
		base := m.SlicePtr[s]
		w := int(m.SliceWidth[s])
		for local := 0; local < height; local++ {
			orig := int(m.Perm[lo+local])
			next := ptr[orig]
			for j := 0; j < w; j++ {
				c := m.Cols[base+j*height+local]
				if c == ELLPad {
					break
				}
				col[next] = c
				data[next] = m.Data[base+j*height+local]
				next++
			}
		}
	}
	return NewCSR(m.rows, m.cols, ptr, col, data)
}

// SpMV implements Matrix: slice-major loop with lane-major inner access
// (the layout real SELL kernels vectorize over).
func (m *SELL) SpMV(y, x []float64) {
	checkSpMVDims(m.rows, m.cols, y, x)
	m.spmvSlices(y, x, 0, m.NumSlices())
}

func (m *SELL) spmvSlices(y, x []float64, slo, shi int) {
	var acc [SELLC]float64
	vec := vectorOn.Load()
	for s := slo; s < shi; s++ {
		lo := s * SELLC
		hi := lo + SELLC
		if hi > m.rows {
			hi = m.rows
		}
		height := hi - lo
		base := m.SlicePtr[s]
		w := int(m.SliceWidth[s])
		sums := acc[:height]
		for r := range sums {
			sums[r] = 0
		}
		// Full-height slices go to the assembly kernel, which accumulates
		// all 8 lanes with masked gathers. Only the final (short) slice of
		// a matrix whose row count is not a multiple of SELLC stays on the
		// generic loop.
		if vec && height == SELLC && w > 0 {
			sellSliceAsm(&m.Cols[base], &m.Data[base], &x[0], &acc[0], w)
			for r := 0; r < height; r++ {
				y[m.Perm[lo+r]] = sums[r]
			}
			continue
		}
		for j := 0; j < w; j++ {
			off := base + j*height
			for r := 0; r < height; r++ {
				c := m.Cols[off+r]
				if c == ELLPad {
					continue
				}
				sums[r] += m.Data[off+r] * x[c]
			}
		}
		for r := 0; r < height; r++ {
			y[m.Perm[lo+r]] = sums[r]
		}
	}
}

// SpMVParallel implements Matrix: slices are independent (they own disjoint
// permuted rows), so a plain parallel-for over slices is race-free.
func (m *SELL) SpMVParallel(y, x []float64) {
	checkSpMVDims(m.rows, m.cols, y, x)
	nslices := m.NumSlices()
	if len(m.Data) < parallel.MinParallelWork || nslices < 2 {
		m.SpMV(y, x)
		return
	}
	parallel.ForThreshold(nslices, 1, func(lo, hi int) {
		m.spmvSlices(y, x, lo, hi)
	})
}

// validateSELL is used by tests: it checks the structural invariants.
func (m *SELL) validate() error {
	if len(m.Perm) != m.rows {
		return fmt.Errorf("sparse: SELL perm length %d, want %d", len(m.Perm), m.rows)
	}
	seen := make([]bool, m.rows)
	for _, p := range m.Perm {
		if p < 0 || int(p) >= m.rows || seen[p] {
			return fmt.Errorf("sparse: SELL perm is not a permutation (row %d)", p)
		}
		seen[p] = true
	}
	nslices := (m.rows + SELLC - 1) / SELLC
	if len(m.SliceWidth) != nslices || len(m.SlicePtr) != nslices+1 {
		return fmt.Errorf("sparse: SELL slice arrays sized %d/%d, want %d/%d",
			len(m.SliceWidth), len(m.SlicePtr), nslices, nslices+1)
	}
	if m.SlicePtr[nslices] != len(m.Data) || len(m.Cols) != len(m.Data) {
		return fmt.Errorf("sparse: SELL storage length mismatch")
	}
	return nil
}
