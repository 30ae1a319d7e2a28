package sparse

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/parallel"
)

// insertionCutoff is the row length up to which an unsorted row is sorted by
// insertion; longer rows radix-sort packed (column, position) keys.
const insertionCutoff = 24

// CSRFromTriplets assembles a CSR matrix from coordinate triplets in any
// order, in O(nnz) for input whose rows arrive sorted. It is the one assembly
// every ingest path funnels into — the generators and the Matrix Market
// reader — so what a matrix costs to bring in is this routine plus whatever
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
// Errors: inconsistent lengths, negative dimensions, or the first entry
// outside rows x cols.
func CSRFromTriplets(rows, cols int, ri, ci []int32, v []float64) (*CSR, error) {
	if err := CheckDims(rows, cols); err != nil {
		return nil, err
	}
	if len(ri) != len(ci) || len(ci) != len(v) {
		return nil, fmt.Errorf("sparse: COO triplet lengths differ: %d, %d, %d", len(ri), len(ci), len(v))
	}
	// Row r is counted two slots up, so that after the prefix sum ptr[r+1] is
	// where row r starts; the scatter advances it to where row r ends, which
	// is where row r+1 starts: the cursor array becomes Ptr.
	ptr := make([]int, rows+2)
	rowMajor := true
	prev := int32(0)
	for k, r := range ri {
		if c := ci[k]; r < 0 || int(r) >= rows || c < 0 || int(c) >= cols {
			return nil, fmt.Errorf("sparse: COO entry %d at (%d,%d) outside %dx%d", k, r, c, rows, cols)
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
		return newCSR(rows, cols, ptr, col, data), nil
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
	return newCSR(rows, cols, ptr, ccol, cdata), nil
}

// rowSorter carries the scratch for sorting long rows, reused along a range.
type rowSorter struct {
	keys, buf []uint64
	vals      []float64
	count     [4][256]uint32
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
		s.vals = append(s.vals[:0], data...)
		for k, key := range s.sortColumns(col) {
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

// sortColumns returns the row's entries as one machine word each, column
// above position, in the order a sort of the words gives: by column, equal
// columns by position. The words start in position order, so stable LSD
// radix passes over the column alone produce it — 8-bit digits, only as many
// passes as the row's largest column has bytes, and none for a byte every
// column shares. One counting sweep histograms every pass's digit; the top
// pass clears and sums only the digits up to the largest column's. col is
// an unsorted row, so its largest column is positive and needs a pass.
func (s *rowSorter) sortColumns(col []int32) []uint64 {
	n := len(col)
	keys := slices.Grow(s.keys[:0], n)[:n]
	buf := slices.Grow(s.buf[:0], n)[:n]
	s.keys, s.buf = keys, buf
	var maxCol int32
	for _, c := range col {
		maxCol = max(maxCol, c)
	}
	passes := (bits.Len32(uint32(maxCol)) + 7) / 8
	var digits [4]int
	for p := range passes {
		digits[p] = 256
	}
	digits[passes-1] = int(uint32(maxCol)>>(8*(passes-1))) + 1
	for p := range passes {
		clear(s.count[p][:digits[p]])
	}
	for k, c := range col {
		keys[k] = uint64(c)<<32 | uint64(k)
		for p := range passes {
			s.count[p][byte(uint32(c)>>(8*p))]++
		}
	}
	for p := range passes {
		cnt := s.count[p][:digits[p]]
		if cnt[byte(uint32(col[0])>>(8*p))] == uint32(n) {
			continue // every column has this digit: the pass is the identity
		}
		var sum uint32
		for d, c := range cnt {
			cnt[d] = sum
			sum += c
		}
		shift := 32 + 8*p
		for _, key := range keys {
			d := byte(key >> shift)
			buf[cnt[d]] = key
			cnt[d]++
		}
		keys, buf = buf, keys
	}
	return keys
}
