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
	// BSRBlockSize is the dense block edge BSR is priced at (the block count
	// comes from features.CountBlocks).
	BSRBlockSize int
}

// DefaultLimits are the limits used throughout the experiments. They mirror
// CUSP's defaults: DIA allowed up to a 20x storage blowup.
var DefaultLimits = Limits{
	DIAFill:      20,
	BSRBlockSize: 4,
}

// The fill limits and HYB's width heuristic of the priced-only formats: the
// model oracle and stage 2's validity check read them, no conversion does.
const (
	// ellFill caps (rows * width) / nnz for ELL, CUSP's 10x blowup.
	ellFill = 10
	// bsrFill caps (blocks * blockSize^2) / nnz for BSR.
	bsrFill = 8
	// hybRowFraction sets the CUSP-style ELL width HYB is priced at
	// (HYBWidth): slot column w is kept in the ELL part while at least a
	// third of the rows have w or more entries.
	hybRowFraction = 1.0 / 3.0
)

// Geometry is what the storage-blowup rule reads of a matrix. A check
// fills in only the fields its formats need.
type Geometry struct {
	Rows, NNZ float64
	Diags     float64 // occupied diagonals, DIA's stored rows
	MaxRow    float64 // the widest row, ELL's slots per row
	Blocks    float64 // nonempty BSRBlockSize² blocks
}

// Fits is the storage-blowup rule: whether storing g in format f pads to no
// more than f's fill limit times its nonzeros. An empty matrix fits, and so
// does every format without a fill limit. The conversions, CanConvert,
// stage 2's validity check and the model oracle all ask this one method, so
// stage 2 never picks a format its conversion refuses.
func (l Limits) Fits(f Format, g Geometry) bool {
	if g.NNZ == 0 {
		return true
	}
	switch f {
	case FmtDIA:
		return g.Diags*g.Rows <= l.DIAFill*g.NNZ
	case FmtELL:
		return g.Rows*g.MaxRow <= ellFill*g.NNZ
	case FmtBSR:
		bs := float64(l.BSRBlockSize)
		return g.Blocks*bs*bs <= bsrFill*g.NNZ
	default:
		return true
	}
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
	if !lim.Fits(FmtDIA, Geometry{Rows: float64(rows), NNZ: float64(nnz), Diags: float64(len(offs))}) {
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

// HYBWidth computes the CUSP-style ELL width for the hybrid format: the
// widest slot column w that at least a third of the rows reach (have w or
// more entries). HYB is priced, not built: timing.ModelOracle reads it.
func HYBWidth(a *CSR) int {
	rows, _ := a.Dims()
	if rows == 0 {
		return 0
	}
	maxW := a.MaxRowNNZ()
	// hist[w] = number of rows with exactly w entries; atLeast sums it from
	// the widest row down.
	hist := make([]int, maxW+2)
	for i := 0; i < rows; i++ {
		hist[a.RowNNZ(i)]++
	}
	atLeast := 0
	threshold := int(hybRowFraction * float64(rows))
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

// ConvertFromCSR converts a CSR matrix into the requested format under the
// given limits. Converting to CSR returns the input unchanged.
func ConvertFromCSR(a *CSR, to Format, lim Limits) (Matrix, error) {
	switch to {
	case FmtCSR:
		return a, nil
	case FmtDIA:
		return CSRToDIA(a, lim)
	case FmtSELL:
		return NewSELLFromCSR(a)
	}
	if to.Valid() && !slices.Contains(Implemented, to) {
		return nil, fmt.Errorf("sparse: %v is priced only: this build has no %v kernel or conversion", to, to)
	}
	return nil, fmt.Errorf("sparse: cannot convert to %v", to)
}

// ToCSR converts a matrix of any Implemented format back to CSR. DIA drops
// explicitly stored zeros in the round trip: its padding is zeros too.
func ToCSR(m Matrix) (*CSR, error) {
	switch a := m.(type) {
	case *CSR:
		return a, nil
	case *DIA:
		return DIAToCSR(a)
	case *SELL:
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
// Implemented (COO, ELL, HYB, BSR, CSR5, JDS) never can; of the rest only DIA
// has a fill limit (SELL pads each slice only to its own longest row, and its
// window sort keeps that padding bounded).
func CanConvert(a *CSR, to Format, lim Limits) bool {
	rows, _ := a.Dims()
	g := Geometry{Rows: float64(rows), NNZ: float64(a.NNZ())}
	switch to {
	case FmtDIA:
		if g.NNZ == 0 {
			return true
		}
		offs, err := csrDiagonals(a)
		g.Diags = float64(len(offs))
		return err == nil && lim.Fits(to, g)
	default:
		return slices.Contains(Implemented, to)
	}
}
