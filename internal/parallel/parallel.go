// Package parallel provides the data-parallel substrate for the SpMV,
// conversion and vector kernels: a persistent worker team (Team) with
// chunked parallel-for entry points and an nnz-balanced row partitioner.
// All helpers are synchronous: they return only after every worker has
// finished, so callers never need additional synchronization for the data
// the workers wrote.
package parallel

import "runtime"

// MinParallelWork is the smallest amount of work (loop iterations) for which
// For will bother going parallel. Below this the loop runs inline: even the
// team's amortized dispatch costs more than it saves on tiny matrices, which
// matters here because format-selection experiments time kernels on matrices
// of all sizes.
const MinParallelWork = 1 << 12

// Workers reports the number of workers parallel loops will use.
func Workers() int { return runtime.GOMAXPROCS(0) }

// For runs body(lo, hi) over disjoint subranges covering [0, n) using up to
// Workers() participants of the default team. Each body call receives a
// contiguous half-open range. If n is small the loop runs inline on the
// calling goroutine.
func For(n int, body func(lo, hi int)) {
	ForThreshold(n, MinParallelWork, body)
}

// ForThreshold is For with an explicit serial-fallback threshold.
func ForThreshold(n, threshold int, body func(lo, hi int)) {
	p := Workers()
	defaultFor(p).forThreshold(p, n, threshold, body)
}

// ForRanges runs body over the given precomputed ranges (pairs of [lo,hi)),
// claimed dynamically by the default team's workers. Used with
// PartitionByWeight for load-balanced row partitioning where rows have
// wildly different costs.
func ForRanges(ranges [][2]int, body func(lo, hi int)) {
	p := Workers()
	defaultFor(p).forRanges(p, ranges, body)
}

// ForEach runs body(i) for every i in [0, n), each index its own dynamically
// claimed task: for a handful of coarse jobs of uneven cost (one model fit,
// one generated matrix), where For's equal chunks would leave workers idle.
func ForEach(n int, body func(i int)) {
	ForRanges(EvenRanges(n, n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRangesIndexed is ForRanges for bodies that need the range's index,
// typically to address per-range scratch state merged after the call. Range
// w always runs as index w no matter which worker claims it.
func ForRangesIndexed(ranges [][2]int, body func(w, lo, hi int)) {
	p := Workers()
	defaultFor(p).forRangesIndexed(p, ranges, body)
}

// ---------------------------------------------------------------------------
// Partitioning helpers.

// EvenRanges splits [0, n) into at most parts contiguous near-equal ranges.
func EvenRanges(n, parts int) [][2]int {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	chunk := (n + parts - 1) / parts
	ranges := make([][2]int, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		ranges = append(ranges, [2]int{lo, hi})
	}
	return ranges
}

// PartitionByWeight splits [0, n) into at most parts contiguous ranges whose
// cumulative weights are approximately equal. cumWeight must be a
// non-decreasing prefix-sum array of length n+1 with cumWeight[0] == 0; for
// CSR matrices the row-pointer array is exactly this. Empty ranges are
// omitted, so the result may have fewer than parts entries.
func PartitionByWeight(n, parts int, cumWeight []int) [][2]int {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	total := cumWeight[n]
	ranges := make([][2]int, 0, parts)
	lo := 0
	for w := 0; w < parts && lo < n; w++ {
		target := cumWeight[lo] + (total-cumWeight[lo])/(parts-w)
		hi := lo + 1
		// Advance hi until the chunk holds its share of the remaining weight.
		for hi < n && cumWeight[hi] < target {
			hi++
		}
		// Last chunk takes everything left.
		if w == parts-1 {
			hi = n
		}
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	if lo < n {
		ranges[len(ranges)-1][1] = n
	}
	return ranges
}
