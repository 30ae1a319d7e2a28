package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/parallel"
	"repro/internal/server"
	"repro/internal/sparse"
)

// RowBlock is one contiguous row slice of a partitioned matrix: rows
// [Lo, Hi) of the original over its column window [ColLo, ColHi), the
// smallest column span that holds the block's entries (one column when it
// holds none). It is stored as a standalone (Hi-Lo) x (ColHi-ColLo) CSR with
// column indices rebased to ColLo, so a stock ocsd shard can host it like any
// other matrix and is sent only x[ColLo:ColHi]. y_block = A_block *
// x[ColLo:ColHi] is exactly the block's share of the product: every row keeps
// its entries, their order and the values of x they multiply, and every row
// is summed entirely on one shard, so the gathered vector is bit-identical to
// a single-process CSR SpMV regardless of how many blocks the rows were cut
// into.
type RowBlock struct {
	Lo, Hi       int
	ColLo, ColHi int
	CSR          *sparse.CSR
}

// PartitionRows splits a into at most parts contiguous row blocks of
// approximately equal nonzero counts (the same weight-balanced cut the
// parallel kernels use, so one pathological dense stripe does not overload
// a single shard). Fewer blocks come back when the matrix has fewer rows
// than parts or when balancing collapses ranges.
func PartitionRows(a *sparse.CSR, parts int) ([]RowBlock, error) {
	rows, cols := a.Dims()
	if parts < 1 {
		parts = 1
	}
	ranges := parallel.PartitionByWeight(rows, parts, a.Ptr)
	if len(ranges) == 0 {
		return nil, fmt.Errorf("cluster: cannot partition %dx%d matrix", rows, cols)
	}
	blocks := make([]RowBlock, 0, len(ranges))
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		base := a.Ptr[lo]
		ptr := make([]int, hi-lo+1)
		for i := lo; i <= hi; i++ {
			ptr[i-lo] = a.Ptr[i] - base
		}
		// Col/Data subslices share the parent arrays; both matrices are
		// immutable after construction so aliasing is safe, and the router
		// drops its copy once the blocks are uploaded anyway. A narrower
		// window needs its own rebased column indices.
		colLo, colHi := colWindow(a, lo, hi)
		col := a.Col[base:a.Ptr[hi]]
		if colHi-colLo < cols {
			rebased := make([]int32, len(col))
			for k, c := range col {
				rebased[k] = c - int32(colLo)
			}
			col = rebased
		}
		block, err := sparse.NewCSR(hi-lo, colHi-colLo, ptr, col, a.Data[base:a.Ptr[hi]])
		if err != nil {
			return nil, fmt.Errorf("cluster: building row block [%d,%d): %w", lo, hi, err)
		}
		blocks = append(blocks, RowBlock{Lo: lo, Hi: hi, ColLo: colLo, ColHi: colHi, CSR: block})
	}
	return blocks, nil
}

// colWindow returns the smallest column span [lo, hi) holding the entries of
// rows [r0, r1) of a — a row's columns ascend, so its first and last entries
// bound it — and [0, 1) (or [0, 0) for a matrix without columns) when the
// rows hold none.
func colWindow(a *sparse.CSR, r0, r1 int) (lo, hi int) {
	lo = math.MaxInt
	for i := r0; i < r1; i++ {
		if s, e := a.Ptr[i], a.Ptr[i+1]; s < e {
			lo, hi = min(lo, int(a.Col[s])), max(hi, int(a.Col[e-1])+1)
		}
	}
	if hi == 0 {
		_, cols := a.Dims()
		return 0, min(1, cols)
	}
	return lo, hi
}

// unreadColumns returns, in order, the column ranges of [0, cols) that no
// block's window covers: columns no row of the matrix reads.
func unreadColumns(blocks []RowBlock, cols int) [][2]int {
	ws := make([][2]int, len(blocks))
	for i, b := range blocks {
		ws[i] = [2]int{b.ColLo, b.ColHi}
	}
	slices.SortFunc(ws, func(a, b [2]int) int { return a[0] - b[0] })
	var gaps [][2]int
	next := 0
	for _, w := range ws {
		if w[0] > next {
			gaps = append(gaps, [2]int{next, w[0]})
		}
		next = max(next, w[1])
	}
	if next < cols {
		gaps = append(gaps, [2]int{next, cols})
	}
	return gaps
}

// blockBody returns the registration body of block b under name and tol:
// the block's CSR arrays, whose values survive the trip bit-exact.
func blockBody(name string, b RowBlock, tol float64) ([]byte, error) {
	return json.Marshal(server.RegisterRequest{Name: name, CSR: server.ArraysOf(b.CSR), Tol: tol})
}
