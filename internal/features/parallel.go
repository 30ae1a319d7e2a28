package features

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/sparse"
)

// parallelExtractMinNNZ is the size below which the sweep runs over a single
// row range, inline on the caller: a team dispatch and the per-range cols-
// and (rows+cols)-sized counters cost more than a second worker saves.
const parallelExtractMinNNZ = 1 << 15

type workerScratch struct {
	minRD, maxRD   int
	sumRD, sumSqRD float64
	bounce         float64
	neighbor       int
	blocks         int
	cells          []colCell // per column, plus one pad cell
	diag           []int32   // diagonal occupancy, shifted by rows-1
}

// colCell is everything the sweep keeps per column, in one word so that a
// nonzero costs one scattered access for all of it: the column's degree and a
// stamp of the last row that had an entry there. The stamp answers both
// questions that need the row above — is (i-1, c) a vertical neighbour, and
// did row i-1 already open this 2x2 block.
type colCell struct {
	deg  int32
	last uint32 // rowStamp of the last row seen in this column; 0 = none
}

// rowStamp is row i's stamp. Offset by two so that row 0's "row above" (stamp
// 1) is a value no cell ever holds: 0 means never touched, real rows start at 2.
func rowStamp(i int) uint32 { return uint32(i + 2) }

// extract is the one extraction body. One fused pass over disjoint row
// ranges gathers, per range: row-degree statistics, column-degree counts,
// diagonal occupancy, the neighbor count and the 2x2 block count; a short
// merge builds the final Set. The result does not depend on the number of
// ranges (all merges are order-independent integer sums; the float statistics
// are computed once from the merged integers), so a small matrix, or a
// process at one worker, runs the same sweep over one range.
func extract(a *sparse.CSR, s *Set) {
	rows, cols := a.Dims()
	nnz := a.NNZ()

	p := 1
	if nnz >= parallelExtractMinNNZ {
		p = min(parallel.Workers(), rows)
	}
	// Row ranges aligned to the block edge so each block band has exactly
	// one owner and block counting cannot double-count.
	ranges := alignedRanges(rows, p, BlockEdge)
	scratch := make([]workerScratch, len(ranges))

	// Dispatch through the shared worker team (inline for a single range):
	// scratch is indexed by range, not by executing worker, so results are
	// identical no matter which team worker claims which range.
	parallel.ForRangesIndexed(ranges, func(w, lo, hi int) {
		ws := &scratch[w]
		ws.minRD = math.MaxInt64
		// The pad cell is column `cols`: the block partner (c^1) of the last
		// column when cols is odd. Nothing stamps it.
		cells := make([]colCell, cols+1)
		ws.cells = cells
		ws.diag = make([]int32, rows+cols-1)
		// The pair (i-1, i) belongs to the range that holds row i, so a range
		// starts by stamping the row above it (degrees untouched).
		if lo > 0 {
			up := rowStamp(lo - 1)
			for _, c := range a.Col[a.Ptr[lo-1]:a.Ptr[lo]] {
				cells[c].last = up
			}
		}
		// Counters live in registers for the sweep: through ws they would be
		// stores the compiler must order against the scatters.
		neighbor, blocks := 0, 0
		for i := lo; i < hi; i++ {
			row := a.Col[a.Ptr[i]:a.Ptr[i+1]]
			rd := len(row)
			if rd < ws.minRD {
				ws.minRD = rd
			}
			if rd > ws.maxRD {
				ws.maxRD = rd
			}
			ws.sumRD += float64(rd)
			ws.sumSqRD += float64(rd) * float64(rd)
			if i > 0 { // gap (i-1, i) owned by the range containing i
				prev := a.Ptr[i] - a.Ptr[i-1]
				ws.bounce += math.Abs(float64(rd - prev))
			}
			up, here := rowStamp(i-1), rowStamp(i)
			diag := ws.diag[rows-1-i:] // diag[c] is diagonal c-i
			secondRow := i%BlockEdge == 1
			prev := int32(-2) // the row's previous column; -2 is adjacent to none
			for _, c := range row {
				cell := &cells[c]
				above := cell.last == up
				cell.last = here
				cell.deg++
				diag[c]++
				if above {
					neighbor += 2 // vertical pair, counted once for both ends
				}
				if prev == c-1 {
					neighbor += 2
				}
				// Sorted row: the entries of one block column are adjacent, so
				// a block can only be new at the first of them. In the band's
				// second row it is new only if the first row left it empty;
				// cells[c^1] is either ahead of this row or, when it is c-1,
				// was not this row's previous entry, so it still shows row i-1.
				newBlock := prev>>1 != c>>1
				prev = c
				if newBlock && secondRow && (above || cells[c^1].last == up) {
					newBlock = false
				}
				if newBlock {
					blocks++
				}
			}
		}
		ws.neighbor, ws.blocks = neighbor, blocks
	})

	// Merge worker scratch. Row stats and counters are order-independent.
	minRD, maxRD := math.MaxInt64, 0
	var sumRD, sumSqRD, bounce float64
	neighbor, blocks := 0, 0
	for i := range scratch {
		ws := &scratch[i]
		if ws.minRD < minRD {
			minRD = ws.minRD
		}
		if ws.maxRD > maxRD {
			maxRD = ws.maxRD
		}
		sumRD += ws.sumRD
		sumSqRD += ws.sumSqRD
		bounce += ws.bounce
		neighbor += ws.neighbor
		blocks += ws.blocks
	}
	// Column degrees and diagonal counts merge in parallel over index chunks.
	cd := make([]int32, cols)
	parallel.For(cols, func(lo, hi int) {
		for w := range scratch {
			src := scratch[w].cells
			for j := lo; j < hi; j++ {
				cd[j] += src[j].deg
			}
		}
	})
	diag := scratch[0].diag
	if len(scratch) > 1 {
		parallel.For(len(diag), func(lo, hi int) {
			for w := 1; w < len(scratch); w++ {
				src := scratch[w].diag
				for j := lo; j < hi; j++ {
					diag[j] += src[j]
				}
			}
		})
	}

	fillRowStats(s, rows, minRD, maxRD, sumRD, sumSqRD, bounce)
	fillColStats(s, cd)
	fillDiagStats(s, rows, cols, diag)
	fillDerived(s, nnz, maxRD)
	s.Blocks = float64(blocks)
	if nnz > 0 {
		s.MeanNeighbor = float64(neighbor) / float64(nnz)
	}
}

// alignedRanges splits [0, n) into at most parts ranges whose boundaries
// (except 0 and n) are multiples of align.
func alignedRanges(n, parts, align int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	out := make([][2]int, 0, parts)
	lo := 0
	for w := 0; w < parts && lo < n; w++ {
		hi := lo + (n-lo)/(parts-w)
		if w < parts-1 {
			hi = (hi / align) * align
			if hi <= lo {
				hi = lo + align
			}
		}
		if hi > n || w == parts-1 {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}
