package cluster

import (
	"fmt"
	"strings"

	"repro/internal/mmio"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// RowBlock is one contiguous row slice of a partitioned matrix: rows
// [Lo, Hi) of the original, stored as a standalone (Hi-Lo) x cols CSR so a
// stock ocsd shard can host it like any other matrix. y_block = A_block * x
// with the full-length x is exactly the block's share of the product, and
// because every row is summed entirely on one shard the gathered vector is
// bit-identical to a single-process CSR SpMV regardless of how many blocks
// the rows were cut into.
type RowBlock struct {
	Lo, Hi int
	CSR    *sparse.CSR
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
		// drops its copy once the blocks are uploaded anyway.
		block, err := sparse.NewCSR(hi-lo, cols, ptr, a.Col[base:a.Ptr[hi]], a.Data[base:a.Ptr[hi]])
		if err != nil {
			return nil, fmt.Errorf("cluster: building row block [%d,%d): %w", lo, hi, err)
		}
		blocks = append(blocks, RowBlock{Lo: lo, Hi: hi, CSR: block})
	}
	return blocks, nil
}

// MarshalBlock serializes a block as Matrix Market text for upload to a
// shard. mmio writes %.17g, so values survive the trip bit-exact.
func MarshalBlock(b RowBlock) string {
	var sb strings.Builder
	_ = mmio.Write(&sb, b.CSR) // a CSR into a strings.Builder cannot fail
	return sb.String()
}
