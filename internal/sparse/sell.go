package sparse

import (
	"fmt"

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

// NewSELLFromCSR converts a CSR matrix to SELL-C-sigma in two passes, both
// parallel on disjoint state. The first sorts each sigma window's rows by
// descending length — a stable insertion sort over the window's lengths,
// ties in row order — and reads each slice's width off its first row:
// windows hold whole slices, so that row is the slice's longest. A serial
// prefix sum places the slices; the second pass checks the columns and
// scatters and pads each slice inside its own Cols/Data span. Both passes
// are deterministic, so the layout is identical at any worker count.
func NewSELLFromCSR(a *CSR) (*SELL, error) {
	rows, cols := a.Dims()
	nnz := a.NNZ()
	nslices := (rows + SELLC - 1) / SELLC
	m := &SELL{rows: rows, cols: cols, nnz: nnz,
		Perm: make([]int32, rows), SliceWidth: make([]int32, nslices), SlicePtr: make([]int, nslices+1)}
	nwin := (rows + SELLSigma - 1) / SELLSigma
	parallel.ForRanges(parallel.EvenRanges(nwin, convParts(nnz)), func(wlo, whi int) {
		var lens [SELLSigma]int
		for wdx := wlo; wdx < whi; wdx++ {
			lo := wdx * SELLSigma
			hi := min(lo+SELLSigma, rows)
			window := m.Perm[lo:hi]
			for r := range window {
				n := a.RowNNZ(lo + r)
				j := r
				for ; j > 0 && lens[j-1] < n; j-- {
					lens[j], window[j] = lens[j-1], window[j-1]
				}
				lens[j], window[j] = n, int32(lo+r)
			}
			for r := lo; r < hi; r += SELLC {
				w := lens[r-lo]
				m.SliceWidth[r/SELLC] = int32(w)
				m.SlicePtr[r/SELLC+1] = w * (min(r+SELLC, hi) - r)
			}
		}
	})
	for s := 0; s < nslices; s++ {
		m.SlicePtr[s+1] += m.SlicePtr[s]
	}
	total := m.SlicePtr[nslices]
	m.Cols = make([]int32, total)
	m.Data = make([]float64, total)
	err := checkedFill(parallel.EvenRanges(nslices, convParts(nnz)), func(_, slo, shi int) error {
		for s := slo; s < shi; s++ {
			lo := s * SELLC
			hi := min(lo+SELLC, rows)
			height := hi - lo
			base := m.SlicePtr[s]
			w := int(m.SliceWidth[s])
			for r := lo; r < hi; r++ {
				orig := int(m.Perm[r])
				local := r - lo
				rcol := a.Col[a.Ptr[orig]:a.Ptr[orig+1]]
				rdata := a.Data[a.Ptr[orig]:a.Ptr[orig+1]]
				prev := int32(-1)
				for j, c := range rcol {
					if c <= prev || int(c) >= cols {
						return colOrderError(orig, c, cols)
					}
					prev = c
					pos := base + j*height + local
					m.Cols[pos] = c
					m.Data[pos] = rdata[j]
				}
				for j := len(rcol); j < w; j++ {
					m.Cols[base+j*height+local] = ELLPad
				}
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
func (m *SELL) SpMV(y, x []float64) { spmv(m, y, x, false) }

// SpMVParallel implements Matrix, splitting the slices evenly among the team.
func (m *SELL) SpMVParallel(y, x []float64) { spmv(m, y, x, true) }

// plan and partition implement kernel: slices, which own disjoint permuted
// rows, split evenly.
func (m *SELL) plan() (units, slots int) { return m.NumSlices(), len(m.Data) }
func (m *SELL) partition() [][2]int      { return nil }

// spmvRange implements kernel: y = A*x over the rows slices [slo, shi) hold.
func (m *SELL) spmvRange(y, x, _ []float64, slo, shi int) {
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

// validate is used by tests: it checks the structural invariants.
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
