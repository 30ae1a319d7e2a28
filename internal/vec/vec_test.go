package vec

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/check"
)

// testLengths are the lengths every pass is checked at: empty, one
// element, either side of a block boundary, several blocks with a tail that
// is not a multiple of the tile, and one past parallelMin so the blocks go
// through the team (TestMain raises GOMAXPROCS).
var testLengths = []int{0, 1, Block - 1, Block, Block + 1, 3*Block + 7, parallelMin + 2*Block + 7}

// randVecs returns k vectors of length n with mixed signs and magnitudes.
func randVecs(rng *rand.Rand, k, n int) [][]float64 {
	vs := make([][]float64, k)
	for j := range vs {
		vs[j] = make([]float64, n)
		for i := range vs[j] {
			vs[j][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return vs
}

func clone(x []float64) []float64 { return append([]float64(nil), x...) }

func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// withinBound holds a blocked reduction of Σ x·y to Higham's bound against
// the compensated reference.
func withinBound(t *testing.T, label string, n int, got float64, x, y []float64) {
	t.Helper()
	ref, bound := check.CompensatedDot(x, y), check.ReductionBound(x, y)
	if math.IsNaN(got) || math.Abs(got-ref) > bound {
		t.Errorf("%s n=%d: got %.17g, reference %.17g, |diff| %g exceeds bound %g", label, n, got, ref, math.Abs(got-ref), bound)
	}
}

func sameVec(t *testing.T, label string, n int, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s n=%d: entry %d is %.17g, the unfused loop gives %.17g", label, n, i, got[i], want[i])
			return
		}
	}
}

func TestDot(t *testing.T) {
	ps := NewPass(3)
	if got := ps.Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	if got := ps.Dot(nil, nil); got != 0 {
		t.Errorf("Dot(nil,nil) = %g", got)
	}
}

func TestDotParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 100, 5000, 100000} {
		vs := randVecs(rng, 2, n)
		got := DotParallel(vs[0], vs[1])
		withinBound(t, "DotParallel", n, got, vs[0], vs[1])
		if same := NewPass(n).Dot(vs[0], vs[1]); got != same {
			t.Errorf("n=%d: DotParallel %.17g, Pass.Dot %.17g", n, got, same)
		}
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	NewPass(3).Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestAxpyParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{50000, 100000} {
		vs := randVecs(rng, 2, n)
		want := clone(vs[1])
		refAxpy(0.7, vs[0], want)
		AxpyParallel(0.7, vs[0], vs[1])
		sameVec(t, "AxpyParallel", n, vs[1], want)
	}
}

func TestNrm2(t *testing.T) {
	if got := Nrm2([]float64{3, 4}); math.Abs(got-5) > 1e-15 {
		t.Errorf("Nrm2 = %g, want 5", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Errorf("Nrm2(nil) = %g", got)
	}
	// Overflow guard: naive sum of squares would overflow here.
	big := []float64{1e200, 1e200}
	if got := Nrm2(big); math.IsInf(got, 0) || math.Abs(got-1e200*math.Sqrt2) > 1e186 {
		t.Errorf("Nrm2 overflow guard failed: %g", got)
	}
}

// TestNorms is the norm every solver takes: the root of the blocked sum of
// squares where that sum can be trusted, the scaled Nrm2 where it cannot.
func TestNorms(t *testing.T) {
	ps := NewPass(4)
	norm := func(x []float64) float64 { return Norm(ps.AxpyTo(x, 0, x, x), x) }
	if got := norm([]float64{3, 4}); got != 5 {
		t.Errorf("Norm = %g, want 5", got)
	}
	for _, x := range [][]float64{
		{1e200, 1e200, 1e-200, 1e200}, // squares overflow
		{1e-200, 3e-200},              // squares underflow to zero
		{0, 0, 0},
		nil,
	} {
		ss := ps.AxpyTo(x, 0, x, x)
		if SafeSumSq(ss) {
			t.Errorf("sum of squares %g of %v passes as safe", ss, x)
		}
		got, want := Norm(ss, x), Nrm2(x)
		if got != want || math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("Norm(%v) = %g, Nrm2 gives %g", x, got, want)
		}
	}
	if got := norm([]float64{1, math.NaN()}); !math.IsNaN(got) {
		t.Errorf("Norm of a NaN vector = %g", got)
	}
}

// TestReductionsWithinBound holds every sum a pass returns — the fused
// bodies' included — to check.ReductionBound against the compensated
// reference taken over the vectors the pass left behind, and every vector a
// reducing pass writes to the unfused loop, entry by entry.
func TestReductionsWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range testLengths {
		ps := NewPass(n)
		vs := randVecs(rng, 7, n)
		x, y, z := vs[0], vs[1], vs[2]

		withinBound(t, "Dot", n, ps.Dot(x, y), x, y)
		xx, xy := ps.Dot2(x, y)
		withinBound(t, "Dot2 x·x", n, xx, x, x)
		withinBound(t, "Dot2 x·y", n, xy, x, y)

		// AxpyTo, apart and in place on either operand.
		dst, want := make([]float64, n), make([]float64, n)
		for i := range want {
			want[i] = y[i] + 0.3*x[i]
		}
		withinBound(t, "AxpyTo", n, ps.AxpyTo(dst, 0.3, x, y), want, want)
		sameVec(t, "AxpyTo", n, dst, want)
		inY := clone(y)
		withinBound(t, "AxpyTo dst=y", n, ps.AxpyTo(inY, 0.3, x, inY), want, want)
		sameVec(t, "AxpyTo dst=y", n, inY, want)
		inX := clone(x)
		withinBound(t, "AxpyTo dst=x", n, ps.AxpyTo(inX, 0.3, inX, y), want, want)
		sameVec(t, "AxpyTo dst=x", n, inX, want)

		got := clone(y)
		withinBound(t, "AxpyDot", n, ps.AxpyDot(0.3, x, got, z), want, z)
		sameVec(t, "AxpyDot", n, got, want)

		// One BiCGSTAB iteration's vector work, fused against the loops.
		const alpha, beta, omega = 0.37, 0.61, -0.23
		f, l := randVecs(rng, 7, n), make([][]float64, 7)
		for k := range f {
			l[k] = clone(f[k])
		}
		_, _, snorm, _, _, _ := refBiCGSTAB(alpha, beta, omega, l[0], l[1], l[2], l[3], l[4], l[5], l[6])
		fx, fr, frhat, fp, fv, fs, ft := f[0], f[1], f[2], f[3], f[4], f[5], f[6]
		ps.BiCGSTABDirection(fp, fr, beta, omega, fv)
		sameVec(t, "BiCGSTABDirection", n, fp, l[3])
		withinBound(t, "rhat·v", n, ps.Dot(frhat, fv), frhat, fv)
		ss := ps.AxpyTo(fs, -alpha, fv, fr)
		sameVec(t, "s = r - alpha*v", n, fs, l[5])
		withinBound(t, "s·s", n, ss, fs, fs)
		if n > 0 && math.Abs(Norm(ss, fs)-snorm) > 1e-12*snorm {
			t.Errorf("n=%d: ||s|| %g from the sum of squares, %g scaled", n, Norm(ss, fs), snorm)
		}
		ftt, fts := ps.Dot2(ft, fs)
		withinBound(t, "t·t", n, ftt, ft, ft)
		withinBound(t, "t·s", n, fts, ft, fs)
		rr, rho := ps.BiCGSTABUpdate(fx, fr, alpha, fp, omega, fs, ft, frhat)
		sameVec(t, "BiCGSTABUpdate x", n, fx, l[0])
		sameVec(t, "BiCGSTABUpdate r", n, fr, l[1])
		withinBound(t, "BiCGSTABUpdate r·r", n, rr, fr, fr)
		withinBound(t, "BiCGSTABUpdate rhat·r", n, rho, frhat, fr)

		// Jacobi: the residual is not stored, so rebuild it for the bound.
		diag := make([]float64, n)
		for i := range diag {
			diag[i] = 2 + rng.Float64()
		}
		jx, lx := clone(x), clone(x)
		refJacobi(lx, y, z, 0.8, diag)
		res := make([]float64, n)
		for i := range res {
			res[i] = y[i] - z[i]
		}
		withinBound(t, "JacobiSweep", n, ps.JacobiSweep(jx, y, z, 0.8, diag), res, res)
		sameVec(t, "JacobiSweep", n, jx, lx)

		// PageRank: positive ranks, one node in five dangling.
		next, cur, dangling := make([]float64, n), make([]float64, n), make([]bool, n)
		for i := range next {
			next[i], cur[i], dangling[i] = rng.Float64(), rng.Float64(), rng.Intn(5) == 0
		}
		lnext, damping := clone(next), 0.85
		_, mass := refPageRank(lnext, cur, dangling, damping)
		teleport := ((1 - damping) + damping*mass) / float64(n)
		delta, nextMass := ps.PageRankUpdate(next, cur, dangling, damping, teleport)
		sameVec(t, "PageRankUpdate", n, next, lnext)
		moved, onDangling := make([]float64, n), make([]float64, n)
		for i := range next {
			moved[i] = math.Abs(next[i] - cur[i])
			if dangling[i] {
				onDangling[i] = next[i]
			}
		}
		withinBound(t, "PageRankUpdate delta", n, delta, moved, ones(n))
		withinBound(t, "PageRankUpdate mass", n, nextMass, onDangling, ones(n))
	}
}

// TestElementwise holds the passes that return no sum to the unfused loops.
func TestElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range testLengths {
		ps := NewPass(n)
		vs := randVecs(rng, 4, n)
		x, y, z, w := vs[0], vs[1], vs[2], vs[3]

		got, want := clone(y), clone(y)
		ps.Axpy(-1.7, x, got)
		refAxpy(-1.7, x, want)
		sameVec(t, "Axpy", n, got, want)

		ps.ScaleTo(got, 0.3, x)
		for i := range want {
			want[i] = 0.3 * x[i]
		}
		sameVec(t, "ScaleTo", n, got, want)

		ps.MulTo(got, x, y)
		for i := range want {
			want[i] = x[i] * y[i]
		}
		sameVec(t, "MulTo", n, got, want)

		// CG: the deferred step and the new direction against the two
		// loops, which update x before they touch p.
		gx, gp, lx, lp := clone(z), clone(w), clone(z), clone(w)
		ps.CGDirection(gx, 0.4, gp, x, 0.9)
		refAxpy(0.4, lp, lx)
		for i := range lp {
			lp[i] = x[i] + 0.9*lp[i]
		}
		sameVec(t, "CGDirection x", n, gx, lx)
		sameVec(t, "CGDirection p", n, gp, lp)
	}
}

func TestDimensionPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	ps := NewPass(2)
	one, two := []float64{1}, []float64{1, 2}
	mustPanic("Dot", func() { ps.Dot(one, two) })
	mustPanic("Dot2", func() { ps.Dot2(two, one) })
	mustPanic("Axpy", func() { ps.Axpy(1, one, two) })
	mustPanic("AxpyTo", func() { ps.AxpyTo(two, 1, two, one) })
	mustPanic("AxpyDot", func() { ps.AxpyDot(1, two, two, one) })
	mustPanic("ScaleTo", func() { ps.ScaleTo(one, 1, two) })
	mustPanic("MulTo", func() { ps.MulTo(two, one, two) })
	mustPanic("CGDirection", func() { ps.CGDirection(two, 1, two, one, 1) })
	mustPanic("BiCGSTABDirection", func() { ps.BiCGSTABDirection(two, two, 1, 1, one) })
	mustPanic("BiCGSTABUpdate", func() { ps.BiCGSTABUpdate(two, two, 1, two, 1, two, two, one) })
	mustPanic("JacobiSweep", func() { ps.JacobiSweep(two, two, two, 1, one) })
	mustPanic("PageRankUpdate", func() { ps.PageRankUpdate(two, two, []bool{true}, 0.85, 0) })
	mustPanic("DotParallel", func() { DotParallel(one, two) })
	mustPanic("AxpyParallel", func() { AxpyParallel(1, one, two) })
}

func TestQuickNrm2NonNegativeAndScales(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		x := make([]float64, n)
		var ninf float64
		for i := range x {
			x[i] = rng.NormFloat64() * 100
			ninf = math.Max(ninf, math.Abs(x[i]))
		}
		n2 := Nrm2(x)
		if n2 < 0 {
			return false
		}
		// Triangle-consistency with the max norm: ||x||_inf <= ||x||_2 <= sqrt(n)*||x||_inf.
		return n2 >= ninf-1e-9 && n2 <= math.Sqrt(float64(n))*ninf+1e-9
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// reductions runs every reducing pass once over fresh copies of vs and
// returns what they summed: the values that must not depend on who ran
// which block.
func reductions(vs [][]float64, dangling []bool) []float64 {
	n := len(vs[0])
	c := make([][]float64, len(vs))
	for k := range vs {
		c[k] = clone(vs[k])
	}
	ps := NewPass(n)
	out := []float64{ps.Dot(c[0], c[1])}
	a, b := ps.Dot2(c[0], c[1])
	out = append(out, a, b, ps.AxpyTo(c[2], 0.3, c[0], c[1]), ps.AxpyDot(0.3, c[0], c[1], c[2]))
	a, b = ps.BiCGSTABUpdate(c[0], c[1], 0.37, c[2], -0.23, c[3], c[4], c[5])
	out = append(out, a, b, ps.JacobiSweep(c[0], c[1], c[2], 0.8, c[6]))
	a, b = ps.PageRankUpdate(c[3], c[4], dangling, 0.85, 1e-6)
	return append(out, a, b, DotParallel(c[0], c[1]))
}

// TestReductionsIndependentOfWorkers is the reduction contract: the same
// bits at GOMAXPROCS 1, 2 and 4, inline or through the team, on a length
// that is neither a multiple of the block nor of the tile.
func TestReductionsIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{3*Block + 7, parallelMin + 5*Block + 13} {
		vs := randVecs(rng, 7, n)
		for i := range vs[6] {
			vs[6][i] = 2 + math.Abs(vs[6][i])
		}
		dangling := make([]bool, n)
		for i := range dangling {
			dangling[i] = rng.Intn(5) == 0
		}
		runtime.GOMAXPROCS(1)
		want := reductions(vs, dangling)
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 5; rep++ {
				for k, got := range reductions(vs, dangling) {
					if got != want[k] {
						t.Fatalf("n=%d GOMAXPROCS=%d: reduction %d is %.17g, %.17g on one worker", n, procs, k, got, want[k])
					}
				}
			}
		}
	}
}

// TestPassHammer runs passes from 8 goroutines at once, each with its own
// Pass and all on the one default team, as concurrent solves do: under
// -race it is the check that a pass shares nothing but the team, and every
// goroutine must still see the single-goroutine bits.
func TestPassHammer(t *testing.T) {
	n := parallelMin + 3*Block + 5
	rng := rand.New(rand.NewSource(6))
	vs := randVecs(rng, 7, n)
	for i := range vs[6] {
		vs[6][i] = 2 + math.Abs(vs[6][i])
	}
	dangling := make([]bool, n)
	for i := range dangling {
		dangling[i] = i%5 == 0
	}
	want := reductions(vs, dangling)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for k, got := range reductions(vs, dangling) {
					if got != want[k] {
						t.Errorf("goroutine %d: reduction %d is %.17g, want %.17g", g, k, got, want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
