package sparse

import (
	"fmt"
	"slices"

	"repro/internal/parallel"
)

// convParts decides the worker count for one conversion pass over `work`
// units (nonzeros or padded slots): 1 below the parallel threshold, else the
// machine's worker count. Conversions run once per matrix but the paper
// prices them in SpMV-equivalents (9-270x), so the passes parallelize with
// per-worker scratch wherever the output layout permits disjoint writes —
// shrinking measured T_convert the same way the team shrinks T_spmv.
func convParts(work int) int {
	if work < parallel.MinParallelWork {
		return 1
	}
	return parallel.Workers()
}

// checkedFill runs fill over the ranges on the worker team (w is the range's
// index) and returns the error of the first range, in range order, that
// reported one. A fill stops at its first bad row, so the error names the
// same row at any worker count.
func checkedFill(ranges [][2]int, fill func(w, lo, hi int) error) error {
	errs := make([]error, len(ranges))
	parallel.ForRangesIndexed(ranges, func(w, lo, hi int) { errs[w] = fill(w, lo, hi) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// colOrderError explains why column c failed the check in row i. The
// conversions write their layouts in one pass and check the source CSR's
// columns as they copy them — c <= prev || c >= cols, with prev = -1 before
// a row's first entry so the first comparison also catches a negative
// column — because a CSR's exported arrays can be changed after NewCSR
// checked them.
func colOrderError(i int, c int32, cols int) error {
	if c < 0 || int(c) >= cols {
		return fmt.Errorf("sparse: CSR column %d out of range in row %d", c, i)
	}
	return fmt.Errorf("sparse: CSR columns not strictly ascending in row %d", i)
}

// Limits bounds the storage blowup a conversion may incur, mirroring the
// library restrictions the paper mentions ("the DIA and ELL require the fill
// ratio ... within some threshold"). A conversion whose padded storage would
// exceed limit*nnz slots is rejected as invalid for that matrix.
type Limits struct {
	// DIAFill caps (ndiags * rows) / nnz for DIA.
	DIAFill float64
	// ELLFill caps (rows * width) / nnz for ELL.
	ELLFill float64
	// BSRFill caps (blocks * blockSize^2) / nnz for BSR, which is priced,
	// not built: the model oracle and stage 2's validity check read it.
	BSRFill float64
	// BSRBlockSize is the dense block edge BSR is priced at (the block count
	// comes from features.CountBlocks).
	BSRBlockSize int
	// HYBRowFraction sets the CUSP-style ELL-width heuristic for HYB: slot
	// column w is kept in the ELL part while at least HYBRowFraction of the
	// rows have w or more entries.
	HYBRowFraction float64
}

// DefaultLimits are the limits used throughout the experiments. They mirror
// CUSP's defaults: DIA and ELL allowed up to a 20x / 10x storage blowup,
// HYB keeps a slot column while a third of the rows use it.
var DefaultLimits = Limits{
	DIAFill:        20,
	ELLFill:        10,
	BSRFill:        8,
	BSRBlockSize:   4,
	HYBRowFraction: 1.0 / 3.0,
}

// COOToCSR converts a (normalized, sorted) COO matrix to CSR.
func COOToCSR(a *COO) (*CSR, error) {
	rows, cols := a.Dims()
	nnz := a.NNZ()
	ptr := make([]int, rows+1)
	for _, r := range a.Row {
		ptr[r+1]++
	}
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	col := make([]int32, nnz)
	data := make([]float64, nnz)
	copy(col, a.Col)
	copy(data, a.Data)
	return NewCSR(rows, cols, ptr, col, data)
}

// CSRToCOO converts a CSR matrix to COO.
func CSRToCOO(a *CSR) (*COO, error) {
	rows, cols := a.Dims()
	nnz := a.NNZ()
	row := make([]int32, nnz)
	for i := 0; i < rows; i++ {
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			row[k] = int32(i)
		}
	}
	return NewCOO(rows, cols, row, a.Col, a.Data)
}

// CSRDiagonals returns the sorted offsets of the nonempty diagonals of a.
// A dense occupancy bitmap (shifted by rows-1) keeps this O(nnz+rows+cols);
// the selector calls it at runtime, so it must stay cheap relative to SpMV.
// Large matrices mark per-worker bitmaps over nnz-balanced row ranges and
// OR-merge them; the merged bitmap is scanned in order, so the result is
// identical at any worker count. It panics on a CSR whose columns were
// changed after NewCSR; CSRToDIA and CanConvert report that instead.
func CSRDiagonals(a *CSR) []int {
	offs, err := csrDiagonals(a)
	if err != nil {
		panic(err)
	}
	return offs
}

// csrDiagonals is CSRDiagonals with the column check of every conversion
// fused into the marking pass.
func csrDiagonals(a *CSR) ([]int, error) {
	rows, cols := a.Dims()
	if rows == 0 || cols == 0 {
		return nil, nil
	}
	ndiag := rows + cols - 1
	var seen []bool
	if parts := convParts(a.NNZ()); parts <= 1 {
		seen = make([]bool, ndiag)
		if err := markDiagonals(a, seen, 0, rows); err != nil {
			return nil, err
		}
	} else {
		ranges := parallel.PartitionByWeight(rows, parts, a.Ptr)
		local := make([][]bool, len(ranges))
		err := checkedFill(ranges, func(w, lo, hi int) error {
			local[w] = make([]bool, ndiag)
			return markDiagonals(a, local[w], lo, hi)
		})
		if err != nil {
			return nil, err
		}
		seen = local[0]
		parallel.For(ndiag, func(lo, hi int) {
			for w := 1; w < len(local); w++ {
				src := local[w]
				for d := lo; d < hi; d++ {
					if src[d] {
						seen[d] = true
					}
				}
			}
		})
	}
	count := 0
	for _, ok := range seen {
		if ok {
			count++
		}
	}
	offs := make([]int, 0, count)
	for d, ok := range seen {
		if ok {
			offs = append(offs, d-(rows-1))
		}
	}
	return offs, nil
}

// markDiagonals sets seen[d] for every diagonal occupied by rows [lo, hi),
// checking each row's columns before they index the bitmap.
func markDiagonals(a *CSR, seen []bool, lo, hi int) error {
	rows, cols := a.Dims()
	for i := lo; i < hi; i++ {
		prev := int32(-1)
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			c := a.Col[k]
			if c <= prev || int(c) >= cols {
				return colOrderError(i, c, cols)
			}
			prev = c
			seen[int(c)-i+rows-1] = true
		}
	}
	return nil
}

// CSRToDIA converts to DIA, rejecting matrices whose diagonal structure
// would exceed lim.DIAFill storage blowup. The layout is written once:
// csrDiagonals checks the columns while it marks the diagonals (so the
// offsets ascend inside the matrix by construction), the scatter counts the
// nonzero values NewDIA would count, and every other slot stays the zero
// padding make left there.
func CSRToDIA(a *CSR, lim Limits) (*DIA, error) {
	rows, cols := a.Dims()
	nnz := a.NNZ()
	offs, err := csrDiagonals(a)
	if err != nil {
		return nil, err
	}
	if nnz > 0 && float64(len(offs))*float64(rows) > lim.DIAFill*float64(nnz) {
		return nil, fmt.Errorf("sparse: DIA fill ratio %.1f exceeds limit %.1f (%d diagonals)",
			float64(len(offs))*float64(rows)/float64(nnz), lim.DIAFill, len(offs))
	}
	m := &DIA{rows: rows, cols: cols, Offsets: offs, Data: make([]float64, len(offs)*rows)}
	if nnz == 0 {
		return m, nil
	}
	// Dense offset -> diagonal-slot lookup (every stored offset is present,
	// so no sentinel is needed); much faster than a map in the scatter loop.
	diagIdx := make([]int32, rows+cols-1)
	for d, k := range offs {
		diagIdx[k+rows-1] = int32(d)
	}
	// Scatter in parallel over row ranges: element (d, i) lands at
	// d*rows+i, and each worker owns a disjoint set of i, so all writes are
	// disjoint.
	ranges := parallel.PartitionByWeight(rows, convParts(nnz), a.Ptr)
	nonzero := make([]int, len(ranges))
	parallel.ForRangesIndexed(ranges, func(w, lo, hi int) {
		n := 0
		for i := lo; i < hi; i++ {
			for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
				v := a.Data[k]
				m.Data[int(diagIdx[int(a.Col[k])-i+rows-1])*rows+i] = v
				if v != 0 {
					n++
				}
			}
		}
		nonzero[w] = n
	})
	for _, n := range nonzero {
		m.nnz += n
	}
	return m, nil
}

// DIAToCSR converts a DIA matrix to CSR, dropping the zero padding (and any
// explicitly stored zeros, which DIA cannot distinguish from padding).
func DIAToCSR(a *DIA) (*CSR, error) {
	rows, cols := a.Dims()
	ptr := make([]int, rows+1)
	for d, k := range a.Offsets {
		lo, hi := diagRowRange(rows, cols, k)
		for i := lo; i < hi; i++ {
			if a.Data[d*rows+i] != 0 {
				ptr[i+1]++
			}
		}
	}
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	nnz := ptr[rows]
	col := make([]int32, nnz)
	data := make([]float64, nnz)
	next := make([]int, rows)
	copy(next, ptr[:rows])
	// Offsets ascend, so filling diagonal-by-diagonal would break the
	// per-row column ordering; fill row-by-row instead.
	for i := 0; i < rows; i++ {
		for d, k := range a.Offsets {
			j := i + k
			if j < 0 || j >= cols {
				continue
			}
			if v := a.Data[d*rows+i]; v != 0 {
				col[next[i]] = int32(j)
				data[next[i]] = v
				next[i]++
			}
		}
	}
	return NewCSR(rows, cols, ptr, col, data)
}

// CSRToELL converts to ELL with width = max row nnz, rejecting matrices
// whose padding would exceed lim.ELLFill storage blowup. One fused pass per
// row copies the entries, checks their columns and writes the ELLPad
// markers (padding values are the zeros make left); each row owns its
// width-slot segment, so the row loop parallelizes with disjoint writes.
func CSRToELL(a *CSR, lim Limits) (*ELL, error) {
	rows, cols := a.Dims()
	nnz := a.NNZ()
	width := a.MaxRowNNZ()
	if nnz > 0 && float64(rows)*float64(width) > lim.ELLFill*float64(nnz) {
		return nil, fmt.Errorf("sparse: ELL fill ratio %.1f exceeds limit %.1f (width %d)",
			float64(rows)*float64(width)/float64(nnz), lim.ELLFill, width)
	}
	m := &ELL{rows: rows, cols: cols, nnz: nnz, Width: width,
		Cols: make([]int32, rows*width), Data: make([]float64, rows*width)}
	err := checkedFill(parallel.EvenRanges(rows, convParts(rows*width)), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			base := i * width
			n := 0
			prev := int32(-1)
			for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
				c := a.Col[k]
				if c <= prev || int(c) >= cols {
					return colOrderError(i, c, cols)
				}
				prev = c
				m.Cols[base+n] = c
				m.Data[base+n] = a.Data[k]
				n++
			}
			for ; n < width; n++ {
				m.Cols[base+n] = ELLPad
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// ELLToCSR converts an ELL matrix to CSR, dropping padding.
func ELLToCSR(a *ELL) (*CSR, error) {
	rows, cols := a.Dims()
	ptr := make([]int, rows+1)
	for i := 0; i < rows; i++ {
		n := 0
		for j := 0; j < a.Width; j++ {
			if a.Cols[i*a.Width+j] == ELLPad {
				break
			}
			n++
		}
		ptr[i+1] = ptr[i] + n
	}
	nnz := ptr[rows]
	col := make([]int32, 0, nnz)
	data := make([]float64, 0, nnz)
	for i := 0; i < rows; i++ {
		for j := 0; j < a.Width; j++ {
			c := a.Cols[i*a.Width+j]
			if c == ELLPad {
				break
			}
			col = append(col, c)
			data = append(data, a.Data[i*a.Width+j])
		}
	}
	return NewCSR(rows, cols, ptr, col, data)
}

// HYBWidth computes the CUSP-style ELL width for the hybrid format: keep
// slot column w while at least rowFraction of the rows have > w entries.
func HYBWidth(a *CSR, rowFraction float64) int {
	rows, _ := a.Dims()
	if rows == 0 {
		return 0
	}
	maxW := a.MaxRowNNZ()
	// hist[w] = number of rows with at least w entries.
	hist := make([]int, maxW+2)
	for i := 0; i < rows; i++ {
		hist[a.RowNNZ(i)]++
	}
	atLeast := 0
	threshold := int(rowFraction * float64(rows))
	if threshold < 1 {
		threshold = 1
	}
	width := 0
	for w := maxW; w >= 1; w-- {
		atLeast += hist[w]
		if atLeast >= threshold {
			width = w
			break
		}
	}
	return width
}

// CSRToHYB converts to HYB using the width heuristic in lim.HYBRowFraction.
// A serial counting pass sizes the COO overflow exactly (prefix sums give
// each row its output offset), then one parallel pass checks the columns
// and scatters the ELL part, its padding, and the overflow triplets with
// disjoint writes per row. The overflow is written row-major with ascending
// columns, which is COO's canonical order, so it becomes the COO part as it
// stands.
func CSRToHYB(a *CSR, lim Limits) (*HYB, error) {
	rows, cols := a.Dims()
	width := HYBWidth(a, lim.HYBRowFraction)
	colIdx := make([]int32, rows*width)
	data := make([]float64, rows*width)
	over := make([]int, rows+1)
	for i := 0; i < rows; i++ {
		over[i+1] = over[i] + max(a.RowNNZ(i)-width, 0)
	}
	total := over[rows]
	orow := make([]int32, total)
	ocol := make([]int32, total)
	oval := make([]float64, total)
	err := checkedFill(parallel.PartitionByWeight(rows, convParts(a.NNZ()+rows*width), a.Ptr), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			base := i * width
			n := 0
			o := over[i]
			prev := int32(-1)
			for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
				c := a.Col[k]
				if c <= prev || int(c) >= cols {
					return colOrderError(i, c, cols)
				}
				prev = c
				if n < width {
					colIdx[base+n] = c
					data[base+n] = a.Data[k]
					n++
				} else {
					orow[o] = int32(i)
					ocol[o] = c
					oval[o] = a.Data[k]
					o++
				}
			}
			for ; n < width; n++ {
				colIdx[base+n] = ELLPad
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &HYB{
		rows: rows, cols: cols,
		Ell: &ELL{rows: rows, cols: cols, nnz: a.NNZ() - total, Width: width, Cols: colIdx, Data: data},
		Coo: &COO{rows: rows, cols: cols, Row: orow, Col: ocol, Data: oval},
	}, nil
}

// HYBToCSR converts a HYB matrix back to CSR by merging the parts.
func HYBToCSR(a *HYB) (*CSR, error) {
	ellCSR, err := ELLToCSR(a.Ell)
	if err != nil {
		return nil, err
	}
	if a.Coo.NNZ() == 0 {
		return ellCSR, nil
	}
	ellCOO, err := CSRToCOO(ellCSR)
	if err != nil {
		return nil, err
	}
	rows, cols := a.Dims()
	return CSRFromTriplets(rows, cols,
		append(ellCOO.Row, a.Coo.Row...),
		append(ellCOO.Col, a.Coo.Col...),
		append(ellCOO.Data, a.Coo.Data...))
}

// ConvertFromCSR converts a CSR matrix into the requested format under the
// given limits. Converting to CSR returns the input unchanged.
func ConvertFromCSR(a *CSR, to Format, lim Limits) (Matrix, error) {
	switch to {
	case FmtCSR:
		return a, nil
	case FmtCOO:
		return CSRToCOO(a)
	case FmtDIA:
		return CSRToDIA(a, lim)
	case FmtELL:
		return CSRToELL(a, lim)
	case FmtHYB:
		return CSRToHYB(a, lim)
	case FmtSELL:
		return NewSELLFromCSR(a)
	case FmtJDS:
		return NewJDSFromCSR(a)
	}
	if to.Valid() && !slices.Contains(Implemented, to) {
		return nil, fmt.Errorf("sparse: %v is priced only: this build has no %v kernel or conversion", to, to)
	}
	return nil, fmt.Errorf("sparse: cannot convert to %v", to)
}

// ToCSR converts any supported matrix back to CSR. Formats that store
// padding (DIA, ELL) drop explicitly stored zeros in the round trip.
func ToCSR(m Matrix) (*CSR, error) {
	switch a := m.(type) {
	case *CSR:
		return a, nil
	case *COO:
		return COOToCSR(a)
	case *DIA:
		return DIAToCSR(a)
	case *ELL:
		return ELLToCSR(a)
	case *HYB:
		return HYBToCSR(a)
	case *SELL:
		return a.ToCSR()
	case *JDS:
		return a.ToCSR()
	default:
		return nil, fmt.Errorf("sparse: cannot convert %v to CSR", m.Format())
	}
}

// Convert converts between any two supported formats, routing through CSR.
func Convert(m Matrix, to Format, lim Limits) (Matrix, error) {
	if m.Format() == to {
		return m, nil
	}
	csr, err := ToCSR(m)
	if err != nil {
		return nil, err
	}
	return ConvertFromCSR(csr, to, lim)
}

// CanConvert reports whether a can be represented in the given format under
// the limits, without building the target representation. A format outside
// Implemented never can; of the rest only DIA and ELL have a fill limit (JDS,
// for one, stores exactly nnz entries, so there is no padding blowup to
// guard against).
func CanConvert(a *CSR, to Format, lim Limits) bool {
	nnz := a.NNZ()
	rows, _ := a.Dims()
	switch to {
	case FmtDIA:
		if nnz == 0 {
			return true
		}
		offs, err := csrDiagonals(a)
		return err == nil && float64(len(offs))*float64(rows) <= lim.DIAFill*float64(nnz)
	case FmtELL:
		if nnz == 0 {
			return true
		}
		return float64(rows)*float64(a.MaxRowNNZ()) <= lim.ELLFill*float64(nnz)
	default:
		return slices.Contains(Implemented, to)
	}
}
