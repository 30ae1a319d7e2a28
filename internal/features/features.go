// Package features extracts the sparse-matrix feature set of the paper's
// Table I. These features feed the regression models; their extraction cost
// is itself part of the prediction overhead T_predict that the paper's
// two-stage scheme exists to control, so Extract is one fused pass over the
// CSR arrays, the same body at every size, and the experiments time it.
package features

import (
	"math"

	"repro/internal/sparse"
)

// TrueDiagOccupancy is the occupancy fraction above which a diagonal counts
// as a "true" diagonal for the NTdiagsRatio feature ("occupied mostly with
// NZ" in the paper's wording).
const TrueDiagOccupancy = 0.6

// BlockEdge is the block size used for the "blocks" feature (number of
// nonzero blocks).
const BlockEdge = 2

// Set holds the full Table I feature set for one matrix.
type Set struct {
	M            float64 // number of rows
	N            float64 // number of columns
	NNZ          float64 // number of nonzeros
	Ndiags       float64 // number of occupied diagonals
	NTdiagsRatio float64 // ratio of "true" (mostly full) diagonals to occupied diagonals
	AverRD       float64 // average nonzeros per row
	MaxRD        float64 // maximum nonzeros per row
	MinRD        float64 // minimum nonzeros per row
	DevRD        float64 // standard deviation of nonzeros per row
	AverCD       float64 // average nonzeros per column
	MaxCD        float64 // maximum nonzeros per column
	MinCD        float64 // minimum nonzeros per column
	DevCD        float64 // standard deviation of nonzeros per column
	ERDIA        float64 // nonzero ratio of the DIA data structure
	ERRD         float64 // nonzero ratio of the row-packed (ELL) structure
	ERCD         float64 // nonzero ratio of the column-packed structure
	RowBounce    float64 // average |RD(i+1) - RD(i)|
	ColBounce    float64 // average |CD(j+1) - CD(j)|
	Density      float64 // NNZ / (M*N)
	CV           float64 // DevRD / AverRD
	MaxMu        float64 // MaxRD - AverRD
	Blocks       float64 // number of nonzero BlockEdge x BlockEdge blocks
	MeanNeighbor float64 // average number of 4-neighborhood nonzero neighbors
}

// Names lists the features in the canonical order used by Vector. The slice
// is shared; do not mutate.
var Names = []string{
	"M", "N", "NNZ", "Ndiags", "NTdiags_ratio",
	"aver_RD", "max_RD", "min_RD", "dev_RD",
	"aver_CD", "max_CD", "min_CD", "dev_CD",
	"ER_DIA", "ER_RD", "ER_CD",
	"row_bounce", "col_bounce", "d", "cv", "max_mu",
	"blocks", "mean_neighbor",
}

// NumFeatures is the length of Vector().
var NumFeatures = len(Names)

// Vector returns the features in the canonical Names order.
func (s *Set) Vector() []float64 {
	return []float64{
		s.M, s.N, s.NNZ, s.Ndiags, s.NTdiagsRatio,
		s.AverRD, s.MaxRD, s.MinRD, s.DevRD,
		s.AverCD, s.MaxCD, s.MinCD, s.DevCD,
		s.ERDIA, s.ERRD, s.ERCD,
		s.RowBounce, s.ColBounce, s.Density, s.CV, s.MaxMu,
		s.Blocks, s.MeanNeighbor,
	}
}

// FromVector rebuilds a Set from a canonical-order vector (the inverse of
// Vector). Panics if the length differs from NumFeatures.
func FromVector(v []float64) *Set {
	if len(v) != NumFeatures {
		panic("features: FromVector length mismatch")
	}
	return &Set{
		M: v[0], N: v[1], NNZ: v[2], Ndiags: v[3], NTdiagsRatio: v[4],
		AverRD: v[5], MaxRD: v[6], MinRD: v[7], DevRD: v[8],
		AverCD: v[9], MaxCD: v[10], MinCD: v[11], DevCD: v[12],
		ERDIA: v[13], ERRD: v[14], ERCD: v[15],
		RowBounce: v[16], ColBounce: v[17], Density: v[18], CV: v[19], MaxMu: v[20],
		Blocks: v[21], MeanNeighbor: v[22],
	}
}

// Extract computes the full feature set of a matrix in one fused sweep over
// its rows (see parallel.go), at every size: extraction must keep pace with
// the parallel SpMV kernel for the paper's "T_predict is 2x-4x of one SpMV
// call" premise to hold.
func Extract(a *sparse.CSR) *Set {
	rows, cols := a.Dims()
	nnz := a.NNZ()
	s := &Set{M: float64(rows), N: float64(cols), NNZ: float64(nnz)}
	if rows == 0 || cols == 0 {
		return s
	}
	s.Density = float64(nnz) / (float64(rows) * float64(cols))
	extract(a, s)
	return s
}

// fillRowStats finalizes the row-degree features from the raw accumulators.
func fillRowStats(s *Set, rows, minRD, maxRD int, sumRD, sumSqRD, bounce float64) {
	s.AverRD = sumRD / float64(rows)
	s.MaxRD = float64(maxRD)
	s.MinRD = float64(minRD)
	variance := sumSqRD/float64(rows) - s.AverRD*s.AverRD
	if variance < 0 {
		variance = 0
	}
	s.DevRD = math.Sqrt(variance)
	if rows > 1 {
		s.RowBounce = bounce / float64(rows-1)
	}
	if s.AverRD > 0 {
		s.CV = s.DevRD / s.AverRD
	}
	s.MaxMu = s.MaxRD - s.AverRD
}

// fillColStats finalizes the column-degree features from the degree counts.
func fillColStats(s *Set, cd []int32) {
	cols := len(cd)
	minCD, maxCD := math.MaxInt64, 0
	var sumCD, sumSqCD float64
	var cbounce float64
	for j, d32 := range cd {
		d := int(d32)
		if d < minCD {
			minCD = d
		}
		if d > maxCD {
			maxCD = d
		}
		sumCD += float64(d)
		sumSqCD += float64(d) * float64(d)
		if j > 0 {
			cbounce += math.Abs(float64(d) - float64(cd[j-1]))
		}
	}
	s.AverCD = sumCD / float64(cols)
	s.MaxCD = float64(maxCD)
	s.MinCD = float64(minCD)
	cvar := sumSqCD/float64(cols) - s.AverCD*s.AverCD
	if cvar < 0 {
		cvar = 0
	}
	s.DevCD = math.Sqrt(cvar)
	if cols > 1 {
		s.ColBounce = cbounce / float64(cols-1)
	}
	if maxCD > 0 {
		s.ERCD = s.NNZ / (s.N * s.MaxCD)
	}
}

// fillDiagStats finalizes the diagonal features from the occupancy counter.
func fillDiagStats(s *Set, rows, cols int, diagCount []int32) {
	ndiags, trueDiags := 0, 0
	for shifted, count := range diagCount {
		if count == 0 {
			continue
		}
		ndiags++
		length := diagLength(rows, cols, shifted-(rows-1))
		if length > 0 && float64(count) >= TrueDiagOccupancy*float64(length) {
			trueDiags++
		}
	}
	s.Ndiags = float64(ndiags)
	if ndiags > 0 {
		s.NTdiagsRatio = float64(trueDiags) / float64(ndiags)
	}
	if s.Ndiags > 0 {
		s.ERDIA = s.NNZ / (s.Ndiags * s.M)
	}
}

// fillDerived finalizes the remaining storage-efficiency ratio.
func fillDerived(s *Set, nnz, maxRD int) {
	if maxRD > 0 {
		s.ERRD = s.NNZ / (s.M * s.MaxRD)
	}
}

// diagLength is the number of matrix positions on diagonal off.
func diagLength(rows, cols, off int) int {
	lo := 0
	if off < 0 {
		lo = -off
	}
	hi := rows
	if cols-off < hi {
		hi = cols - off
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// CountBlocks counts the bs x bs grid blocks containing at least one
// nonzero, using a last-touch mark per block column (O(nnz)): the block
// count BSR is priced and validated by, since no BSR is ever built.
func CountBlocks(a *sparse.CSR, bs int) int {
	rows, cols := a.Dims()
	brows := (rows + bs - 1) / bs
	bcols := (cols + bs - 1) / bs
	if bcols == 0 {
		return 0
	}
	mark := make([]int, bcols)
	for i := range mark {
		mark[i] = -1
	}
	count := 0
	for bi := 0; bi < brows; bi++ {
		rhi := (bi + 1) * bs
		if rhi > rows {
			rhi = rows
		}
		for i := bi * bs; i < rhi; i++ {
			for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
				bj := int(a.Col[k]) / bs
				if mark[bj] != bi {
					mark[bj] = bi
					count++
				}
			}
		}
	}
	return count
}
