//go:build !race

package vec

import (
	"math/rand"
	"runtime"
	"testing"
)

// Under the race detector sync.Pool drops items at random, so DotParallel's
// lent Pass allocates now and then.

// TestPassesDoNotAllocate: a pass leaves nothing for the collector, inline
// (below parallelMin) and, at one worker, at any length. Through the team
// the dispatch itself allocates its job, inside internal/parallel, as every
// parallel SpMV does.
func TestPassesDoNotAllocate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ n, procs int }{{3*Block + 7, 4}, {parallelMin + Block, 1}} {
		runtime.GOMAXPROCS(c.procs)
		vs := randVecs(rand.New(rand.NewSource(7)), 4, c.n)
		ps := NewPass(c.n)
		var sink float64
		allocs := testing.AllocsPerRun(10, func() {
			sink += ps.Dot(vs[0], vs[1])
			sink += ps.AxpyTo(vs[2], 1e-3, vs[0], vs[2])
			ps.CGDirection(vs[3], 1e-3, vs[1], vs[2], 0.5)
			sink += DotParallel(vs[0], vs[1])
		})
		if allocs != 0 {
			t.Errorf("n=%d GOMAXPROCS=%d: %v allocations per run, want 0", c.n, c.procs, allocs)
		}
	}
}
