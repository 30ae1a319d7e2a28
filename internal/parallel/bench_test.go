package parallel

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkDispatch measures the per-call cost of team dispatch on a simple
// streaming body against running it serially (no dispatch at all): the gap
// at small n is the overhead every parallel region pays; at large n the body
// dominates and the two converge.
//
// GOMAXPROCS is pinned to at least 4 so the parallel paths engage even on
// small CI machines (goroutines then time-slice; the dispatch cost being
// measured is real either way).
func BenchmarkDispatch(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	team := NewTeam(4)
	defer team.Close()
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		x := make([]float64, n)
		body := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i]++
			}
		}
		b.Run(fmt.Sprintf("serial/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body(0, n)
			}
		})
		b.Run(fmt.Sprintf("team/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				team.ForThreshold(n, 1, body)
			}
		})
	}
}

// BenchmarkDispatchRanges is BenchmarkDispatch for the precomputed-range
// entry points, which the conversion kernels use with nnz-balanced
// partitions.
func BenchmarkDispatchRanges(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	team := NewTeam(4)
	defer team.Close()
	const n = 1 << 16
	x := make([]float64, n)
	ranges := EvenRanges(n, 4)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i]++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		team.ForRanges(ranges, body)
	}
}
