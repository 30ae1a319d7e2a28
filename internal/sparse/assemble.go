package sparse

import (
	"fmt"
	"slices"

	"repro/internal/parallel"
)

// insertionCutoff is the row length up to which an unsorted row is sorted by
// insertion; longer rows sort packed (column, position) keys.
const insertionCutoff = 24

// CSRFromTriplets assembles a CSR matrix from coordinate triplets in any
// order, in O(nnz) for input whose rows arrive sorted. It is the one assembly
// every ingest path funnels into — the generators, the Matrix Market reader,
// NewCOO — so what a matrix costs to bring in is this routine plus whatever
// produced the triplets.
//
// Entries are bucketed by row with a stable counting sort whose prefix sum is
// Ptr; a row whose columns are already strictly increasing is left alone, the
// others are sorted stably by column. Duplicate coordinates are summed in
// input order: (r, c, a), (r, c, b), (r, c, d) become (a+b)+d, whatever else
// lies between them. Entries with a zero value are kept. The inputs are not
// modified or retained. The per-row step runs on the worker team; each row's
// result depends on that row alone, so the matrix is the same at any worker
// count.
//
// Errors are NewCOO's: inconsistent lengths, negative dimensions, or the
// first entry outside rows x cols.
func CSRFromTriplets(rows, cols int, ri, ci []int32, v []float64) (*CSR, error) {
	ptr, col, data, err := assembleTriplets(rows, cols, ri, ci, v)
	if err != nil {
		return nil, err
	}
	return newCSR(rows, cols, ptr, col, data), nil
}

// assembleTriplets returns canonical CSR arrays (Ptr monotone from 0, columns
// strictly ascending in every row) for the triplets.
func assembleTriplets(rows, cols int, ri, ci []int32, v []float64) ([]int, []int32, []float64, error) {
	if rows < 0 || cols < 0 {
		return nil, nil, nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	if len(ri) != len(ci) || len(ci) != len(v) {
		return nil, nil, nil, fmt.Errorf("sparse: COO triplet lengths differ: %d, %d, %d", len(ri), len(ci), len(v))
	}
	// Row r is counted two slots up, so that after the prefix sum ptr[r+1] is
	// where row r starts; the scatter advances it to where row r ends, which
	// is where row r+1 starts: the cursor array becomes Ptr.
	ptr := make([]int, rows+2)
	rowMajor := true
	prev := int32(0)
	for k, r := range ri {
		if c := ci[k]; r < 0 || int(r) >= rows || c < 0 || int(c) >= cols {
			return nil, nil, nil, fmt.Errorf("sparse: COO entry %d at (%d,%d) outside %dx%d", k, r, c, rows, cols)
		}
		ptr[r+2]++
		rowMajor = rowMajor && r >= prev
		prev = r
	}
	for i := 1; i <= rows; i++ {
		ptr[i+1] += ptr[i]
	}
	nnz := len(v)
	col := make([]int32, nnz)
	data := make([]float64, nnz)
	if rowMajor {
		// The stable bucketing of rows that arrive in order is the identity.
		copy(col, ci)
		copy(data, v)
		copy(ptr[1:], ptr[2:])
	} else {
		for k, r := range ri {
			pos := ptr[r+1]
			ptr[r+1] = pos + 1
			col[pos] = ci[k]
			data[pos] = v[k]
		}
	}
	ptr = ptr[:rows+1]

	ranges := parallel.PartitionByWeight(rows, convParts(nnz), ptr)
	dropped := make([]int, len(ranges))
	parallel.ForRangesIndexed(ranges, func(w, lo, hi int) {
		var s rowSorter
		d := 0
		for i := lo; i < hi; i++ {
			d += s.canonicalize(col[ptr[i]:ptr[i+1]], data[ptr[i]:ptr[i+1]])
		}
		dropped[w] = d
	})
	total := 0
	for _, d := range dropped {
		total += d
	}
	if total == 0 {
		return ptr, col, data, nil
	}
	// Something merged: the rows' tails hold -1 columns. Close the gaps into
	// arrays of the exact size, so a matrix of many duplicates (an R-MAT
	// graph) does not carry their capacity for life.
	ccol := make([]int32, 0, nnz-total)
	cdata := make([]float64, 0, nnz-total)
	lo := 0
	for i := 0; i < rows; i++ {
		hi := ptr[i+1]
		for k := lo; k < hi && col[k] >= 0; k++ {
			ccol = append(ccol, col[k])
			cdata = append(cdata, data[k])
		}
		ptr[i+1] = len(ccol)
		lo = hi
	}
	return ptr, ccol, cdata, nil
}

// rowSorter carries the scratch for sorting long rows, reused along a range.
type rowSorter struct {
	keys []uint64
	vals []float64
}

// canonicalize sorts one row stably by column unless it is already strictly
// increasing, sums runs of equal columns front to back into the run's first
// slot, and marks the slots that frees at the row's tail with column -1. It
// returns how many slots it freed.
func (s *rowSorter) canonicalize(col []int32, data []float64) int {
	unsorted, dups := false, false
	for k := 1; k < len(col); k++ {
		if col[k] <= col[k-1] {
			if col[k] < col[k-1] {
				unsorted = true
				break
			}
			dups = true
		}
	}
	if !unsorted && !dups {
		return 0
	}
	if unsorted && len(col) <= insertionCutoff {
		for k := 1; k < len(col); k++ {
			c, d := col[k], data[k]
			j := k
			for ; j > 0 && col[j-1] > c; j-- { // strict: equal columns keep their order
				col[j], data[j] = col[j-1], data[j-1]
			}
			col[j], data[j] = c, d
		}
	} else if unsorted {
		// One machine word per entry, column above position: an ordinary
		// sort of the words is a stable sort of the row.
		s.keys = slices.Grow(s.keys[:0], len(col))[:len(col)]
		s.vals = append(s.vals[:0], data...)
		for k, c := range col {
			s.keys[k] = uint64(c)<<32 | uint64(k)
		}
		slices.Sort(s.keys)
		for k, key := range s.keys {
			col[k] = int32(key >> 32)
			data[k] = s.vals[uint32(key)]
		}
	}
	w := 0
	for k := 1; k < len(col); k++ {
		if col[k] == col[w] {
			data[w] += data[k]
			continue
		}
		w++
		col[w], data[w] = col[k], data[k]
	}
	for k := w + 1; k < len(col); k++ {
		col[k] = -1
	}
	return len(col) - 1 - w
}
