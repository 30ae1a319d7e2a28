package sparse

import (
	"fmt"
	"slices"

	"repro/internal/parallel"
)

// SELL-C-sigma (Kreutzer et al., SIAM J. Sci. Comput. 2014). Rows are
// sorted by length inside windows of sigma rows and grouped into slices of
// SELLC rows; each slice is padded only to its own maximum row length, which
// bounds ELL's padding blowup while keeping a rectangular, vectorizable
// layout. ELL (sigma 1, one slice) and JDS (sigma = rows, slices of one row)
// are its corners; both are priced, not built (DESIGN.md §6). This format
// is not part of the paper's original set — it is the "easily extended to
// other formats" exercise the paper proposes, wired through the same
// selection machinery.

// SELLC is the slice height.
const SELLC = 8

// SELLPad is the column index that marks a padding slot in SELL storage;
// its value slot holds 0.
const SELLPad int32 = -1

// sellSigmas is the ladder of sorting-window heights, each a multiple of
// SELLC. sigma climbs a rung only while the rung stays at most half the
// matrix — a window over the whole matrix is JDS's global order, which
// scatters the result vector and measured slower than a windowed sort on
// both large skewed panel classes (DESIGN.md §6) — and cuts the padded
// slots by more than sellClimbCut of the rung below.
var sellSigmas = [...]int{64, 4096, 32768}

// sellClimbCut is the share of padded slots a rung must save to be taken.
const sellClimbCut = 0.15

// SELLLayout is the geometry of a SELL-C-sigma matrix: its window height,
// its row order and its slices. Slice s covers storage rows
// [s*SELLC, min((s+1)*SELLC, rows)) and holds SliceWidth[s] slots per row at
// [SlicePtr[s], SlicePtr[s+1]) of the value arrays.
type SELLLayout struct {
	Sigma      int     // sorting-window height
	Perm       []int32 // storage row -> original row
	SliceWidth []int32 // max row length per slice
	SlicePtr   []int   // slice start offsets into Cols/Data
}

// NumSlices returns the number of row slices.
func (l *SELLLayout) NumSlices() int { return len(l.SliceWidth) }

// Slots returns the stored slots, padding included.
func (l *SELLLayout) Slots() int { return l.SlicePtr[len(l.SliceWidth)] }

// NewSELLLayout is the one SELL geometry: NewSELLFromCSR stores a matrix in
// it and timing.ModelOracle prices it. It reads only a's row lengths. sigma
// starts at the ladder's first rung and climbs by the rule on sellSigmas;
// every window's rows are ordered by descending length, ties in row order.
// No rung stores fewer slots than a has nonzeros, so once a rung's padding
// is at most sellClimbCut of its slots no higher rung can pass the rule,
// and the climb stops without sorting one.
func NewSELLLayout(a *CSR) SELLLayout {
	rows, _ := a.Dims()
	sigma, perm := sellSigmas[0], make([]int32, rows)
	slots := sortWindows(a, sigma, perm)
	var trial []int32
	for _, s := range sellSigmas[1:] {
		if 2*s > rows || float64(a.NNZ()) >= (1-sellClimbCut)*float64(slots) {
			break
		}
		if trial == nil {
			trial = make([]int32, rows)
		}
		n := sortWindows(a, s, trial)
		if float64(n) >= (1-sellClimbCut)*float64(slots) {
			break
		}
		sigma, slots, perm, trial = s, n, trial, perm
	}
	nslices := (rows + SELLC - 1) / SELLC
	l := SELLLayout{Sigma: sigma, Perm: perm, SliceWidth: make([]int32, nslices), SlicePtr: make([]int, nslices+1)}
	for s := 0; s < nslices; s++ {
		w := a.RowNNZ(int(perm[s*SELLC]))
		l.SliceWidth[s] = int32(w)
		l.SlicePtr[s+1] = l.SlicePtr[s] + w*(min((s+1)*SELLC, rows)-s*SELLC)
	}
	return l
}

// sortWindows writes into perm the rows of each sigma-window of a in
// descending length order, ties in row order, and returns the padded slots of
// that order. Each window is a stable counting sort over its own lengths, so
// a pass is O(rows + nnz) at any sigma. Windows hold whole slices, so a
// slice's first row is its longest. Windows sort in parallel on disjoint
// spans of perm; the result does not depend on the worker count.
func sortWindows(a *CSR, sigma int, perm []int32) (slots int) {
	rows, _ := a.Dims()
	ranges := parallel.EvenRanges((rows+sigma-1)/sigma, convParts(a.NNZ()))
	part := make([]int, len(ranges))
	parallel.ForRangesIndexed(ranges, func(w, wlo, whi int) {
		var at []int
		n := 0
		for wdx := wlo; wdx < whi; wdx++ {
			lo, hi := wdx*sigma, min((wdx+1)*sigma, rows)
			longest := 0
			for i := lo; i < hi; i++ {
				longest = max(longest, a.RowNNZ(i))
			}
			// at[l] counts the rows of length l, then becomes the window
			// offset of the next such row: longer rows first.
			at = slices.Grow(at[:0], longest+1)[:longest+1]
			clear(at)
			for i := lo; i < hi; i++ {
				at[a.RowNNZ(i)]++
			}
			off := lo
			for l := longest; l >= 0; l-- {
				at[l], off = off, off+at[l]
			}
			for i := lo; i < hi; i++ {
				l := a.RowNNZ(i)
				perm[at[l]] = int32(i)
				at[l]++
			}
			for r := lo; r < hi; r += SELLC {
				n += a.RowNNZ(int(perm[r])) * (min(r+SELLC, hi) - r)
			}
		}
		part[w] = n
	})
	for _, n := range part {
		slots += n
	}
	return slots
}

// SELL stores a matrix in SELL-C-sigma format. Slice s's entries live at
// Data[SlicePtr[s] : SlicePtr[s+1]] laid out lane-major: element (r, j) of
// the slice (local row r, slot j) is at SlicePtr[s] + j*height + r where
// height is the slice's row count.
type SELL struct {
	rows, cols int
	nnz        int
	SELLLayout
	Cols []int32 // SELLPad marks padding
	Data []float64

	// sliceRanges caches the slot-balanced slice partition the parallel
	// kernel runs over: a wide window's longest rows lead it.
	sliceRanges [][2]int
}

// Format implements Matrix.
func (m *SELL) Format() Format { return FmtSELL }

// Dims implements Matrix.
func (m *SELL) Dims() (int, int) { return m.rows, m.cols }

// NNZ implements Matrix.
func (m *SELL) NNZ() int { return m.nnz }

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

// NewSELLFromCSR converts a CSR matrix to SELL-C-sigma: NewSELLLayout places
// the rows and slices, then one parallel pass over slot-balanced slice
// ranges checks the columns and scatters and pads each slice inside its own
// Cols/Data span. Both steps are deterministic, so the layout is identical
// at any worker count.
func NewSELLFromCSR(a *CSR) (*SELL, error) {
	rows, cols := a.Dims()
	nnz := a.NNZ()
	m := &SELL{rows: rows, cols: cols, nnz: nnz, SELLLayout: NewSELLLayout(a)}
	nslices := m.NumSlices()
	m.sliceRanges = parallel.PartitionByWeight(nslices, parallel.Workers(), m.SlicePtr)
	total := m.Slots()
	m.Cols = make([]int32, total)
	m.Data = make([]float64, total)
	err := checkedFill(parallel.PartitionByWeight(nslices, convParts(nnz), m.SlicePtr), func(_, slo, shi int) error {
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
					m.Cols[base+j*height+local] = SELLPad
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
				if m.Cols[base+j*height+local] == SELLPad {
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
				if c == SELLPad {
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

// SpMVParallel implements Matrix over the slot-balanced slice ranges.
func (m *SELL) SpMVParallel(y, x []float64) { spmv(m, y, x, true) }

// plan and partition implement kernel: slices, which own disjoint permuted
// rows, in contiguous chunks of about equal stored slots cut once at
// construction, the way CSR splits rows by nonzeros.
func (m *SELL) plan() (units, slots int) { return m.NumSlices(), len(m.Data) }
func (m *SELL) partition() [][2]int      { return m.sliceRanges }

// spmvRange implements kernel: y = A*x over the rows slices [slo, shi) hold.
func (m *SELL) spmvRange(y, x []float64, slo, shi int) {
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
				if c == SELLPad {
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

// validate is used by tests: it checks the structural invariants and the
// layout rule — every storage row lies in its original row's sigma-window,
// and row lengths do not rise within a window.
func (m *SELL) validate() error {
	if len(m.Perm) != m.rows {
		return fmt.Errorf("sparse: SELL perm length %d, want %d", len(m.Perm), m.rows)
	}
	if m.Sigma <= 0 || m.Sigma%SELLC != 0 {
		return fmt.Errorf("sparse: SELL sigma %d is not a positive multiple of %d", m.Sigma, SELLC)
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
	// A storage row's length is its stored entries, up to its first pad.
	rowLen := func(r int) int {
		s := r / SELLC
		height := min((s+1)*SELLC, m.rows) - s*SELLC
		n := 0
		for n < int(m.SliceWidth[s]) && m.Cols[m.SlicePtr[s]+n*height+r%SELLC] != SELLPad {
			n++
		}
		return n
	}
	prev := 0
	for r, orig := range m.Perm {
		if int(orig)/m.Sigma != r/m.Sigma {
			return fmt.Errorf("sparse: SELL row %d stored at %d, outside its sigma-window", orig, r)
		}
		n := rowLen(r)
		if r%m.Sigma != 0 && n > prev {
			return fmt.Errorf("sparse: SELL row lengths rise within a window at storage row %d", r)
		}
		prev = n
	}
	return nil
}
