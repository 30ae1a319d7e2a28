package apps

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// spdSystem builds a small SPD system with a known solution.
func spdSystem(t testing.TB, n int, seed int64) (*sparse.CSR, []float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base, err := matgen.Random(n, n, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := matgen.MakeSPD(base)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.SpMV(b, xTrue)
	return a, b, xTrue
}

func checkSolution(t *testing.T, a *sparse.CSR, x, b []float64, tol float64, label string) {
	t.Helper()
	n, _ := a.Dims()
	r := make([]float64, n)
	a.SpMV(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rel := vec.Nrm2(r) / vec.Nrm2(b)
	if rel > tol {
		t.Errorf("%s: relative residual %g > %g", label, rel, tol)
	}
}

func TestCGSolvesSPD(t *testing.T) {
	a, b, _ := spdSystem(t, 200, 1)
	res, err := CG(Ser(a), b, DefaultSolveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge in %d iterations (res %g)", res.Iterations, res.Residual)
	}
	checkSolution(t, a, res.X, b, 1e-6, "CG")
	if len(res.Progress) != res.Iterations {
		t.Errorf("progress length %d != iterations %d", len(res.Progress), res.Iterations)
	}
}

func TestCGProgressDecreasesOverall(t *testing.T) {
	a, b, _ := spdSystem(t, 300, 2)
	res, err := CG(Par(a), b, DefaultSolveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Progress[0]
	last := res.Progress[len(res.Progress)-1]
	if last >= first {
		t.Errorf("CG made no progress: %g -> %g", first, last)
	}
}

func TestCGBreaksOnIndefinite(t *testing.T) {
	// -I is symmetric negative definite: p'Ap < 0 on the first step.
	dense := []float64{-1, 0, 0, -1}
	a, err := sparse.FromDense(2, 2, dense)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CG(Ser(a), []float64{1, 1}, DefaultSolveOptions(), nil); err == nil {
		t.Error("CG accepted an indefinite matrix")
	}
}

func TestBiCGSTABSolvesGeneral(t *testing.T) {
	// Nonsymmetric diagonally dominant system.
	rng := rand.New(rand.NewSource(3))
	n := 200
	base, err := matgen.Random(n, n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Make strictly diagonally dominant but keep asymmetry.
	var ri, ci []int32
	var v []float64
	for i := 0; i < n; i++ {
		var rowAbs float64
		for k := base.Ptr[i]; k < base.Ptr[i+1]; k++ {
			if int(base.Col[k]) != i {
				ri = append(ri, int32(i))
				ci = append(ci, base.Col[k])
				v = append(v, base.Data[k])
				rowAbs += math.Abs(base.Data[k])
			}
		}
		ri = append(ri, int32(i))
		ci = append(ci, int32(i))
		v = append(v, rowAbs+1)
	}
	a, err := sparse.CSRFromTriplets(n, n, ri, ci, v)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res, err := BiCGSTAB(Ser(a), b, DefaultSolveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("BiCGSTAB did not converge (res %g after %d)", res.Residual, res.Iterations)
	}
	checkSolution(t, a, res.X, b, 1e-6, "BiCGSTAB")
}

func TestBiCGSTABOnSPD(t *testing.T) {
	a, b, _ := spdSystem(t, 150, 4)
	res, err := BiCGSTAB(Ser(a), b, DefaultSolveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("BiCGSTAB failed on SPD system")
	}
	checkSolution(t, a, res.X, b, 1e-6, "BiCGSTAB/SPD")
}

func TestGMRESSolvesGeneral(t *testing.T) {
	a, b, _ := spdSystem(t, 150, 5)
	res, err := GMRES(Ser(a), b, DefaultSolveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("GMRES did not converge (res %g after %d)", res.Residual, res.Iterations)
	}
	checkSolution(t, a, res.X, b, 1e-6, "GMRES")
}

func TestGMRESRestartSmallerThanN(t *testing.T) {
	a, b, _ := spdSystem(t, 120, 6)
	opt := DefaultSolveOptions()
	opt.Restart = 10
	res, err := GMRES(Ser(a), b, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("GMRES(10) did not converge (res %g)", res.Residual)
	}
	checkSolution(t, a, res.X, b, 1e-6, "GMRES(10)")
}

func TestGMRESHonorsMaxIters(t *testing.T) {
	a, b, _ := spdSystem(t, 200, 7)
	opt := DefaultSolveOptions()
	opt.Tol = 1e-300 // unreachable
	opt.MaxIters = 37
	res, err := GMRES(Ser(a), b, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != 37 {
		t.Errorf("converged=%v iterations=%d, want false/37", res.Converged, res.Iterations)
	}
}

func TestPageRankUniformOnCycle(t *testing.T) {
	// A directed cycle: perfectly uniform ranks.
	n := 50
	ri := make([]int32, n)
	ci := make([]int32, n)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		ri[i] = int32(i)
		ci[i] = int32((i + 1) % n)
		v[i] = 1
	}
	adj, err := sparse.CSRFromTriplets(n, n, ri, ci, v)
	if err != nil {
		t.Fatal(err)
	}
	p, dangling, err := BuildTransition(adj)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PageRank(Ser(p), dangling, DefaultPageRankOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("PageRank did not converge on cycle")
	}
	for i, r := range res.X {
		if math.Abs(r-1.0/float64(n)) > 1e-6 {
			t.Fatalf("rank[%d] = %g, want %g", i, r, 1.0/float64(n))
		}
	}
}

func TestPageRankMassConservedWithDangling(t *testing.T) {
	// Star with a dangling center: node 0 has no out-links, 1..n-1 -> 0.
	n := 20
	var ri, ci []int32
	var v []float64
	for i := 1; i < n; i++ {
		ri = append(ri, int32(i))
		ci = append(ci, 0)
		v = append(v, 1)
	}
	adj, err := sparse.CSRFromTriplets(n, n, ri, ci, v)
	if err != nil {
		t.Fatal(err)
	}
	p, dangling, err := BuildTransition(adj)
	if err != nil {
		t.Fatal(err)
	}
	if !dangling[0] || dangling[1] {
		t.Fatalf("dangling flags wrong: %v", dangling[:3])
	}
	res, err := PageRank(Ser(p), dangling, DefaultPageRankOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("PageRank did not converge")
	}
	var mass float64
	for _, r := range res.X {
		mass += r
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("rank mass = %g, want 1", mass)
	}
	// The hub must outrank the leaves.
	if res.X[0] <= res.X[1] {
		t.Errorf("hub rank %g <= leaf rank %g", res.X[0], res.X[1])
	}
}

func TestHookSeesEveryIteration(t *testing.T) {
	a, b, _ := spdSystem(t, 100, 8)
	var iters []int
	var values []float64
	res, err := CG(Ser(a), b, DefaultSolveOptions(), func(it int, p float64) {
		iters = append(iters, it)
		values = append(values, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != res.Iterations {
		t.Fatalf("hook called %d times for %d iterations", len(iters), res.Iterations)
	}
	for i := range iters {
		if iters[i] != i+1 {
			t.Fatalf("hook iteration %d at position %d", iters[i], i)
		}
		if values[i] != res.Progress[i] {
			t.Fatalf("hook value %g != progress %g", values[i], res.Progress[i])
		}
	}
}

func TestSolverInputValidation(t *testing.T) {
	a, b, _ := spdSystem(t, 10, 9)
	bad := b[:5]
	if _, err := CG(Ser(a), bad, DefaultSolveOptions(), nil); err == nil {
		t.Error("CG accepted short rhs")
	}
	if _, err := BiCGSTAB(Ser(a), bad, DefaultSolveOptions(), nil); err == nil {
		t.Error("BiCGSTAB accepted short rhs")
	}
	if _, err := GMRES(Ser(a), bad, DefaultSolveOptions(), nil); err == nil {
		t.Error("GMRES accepted short rhs")
	}
	opt := DefaultSolveOptions()
	opt.Tol = -1
	if _, err := CG(Ser(a), b, opt, nil); err == nil {
		t.Error("CG accepted negative tolerance")
	}
	rect, err := sparse.FromDense(2, 3, make([]float64, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CG(Ser(rect), []float64{1, 1, 1}, DefaultSolveOptions(), nil); err == nil {
		t.Error("CG accepted non-square operator")
	}
	prOpt := DefaultPageRankOptions()
	prOpt.Damping = 1.5
	if _, err := PageRank(Ser(a), make([]bool, 10), prOpt, nil); err == nil {
		t.Error("PageRank accepted damping > 1")
	}
	if _, err := PageRank(Ser(a), make([]bool, 3), DefaultPageRankOptions(), nil); err == nil {
		t.Error("PageRank accepted wrong dangling length")
	}
	if _, _, err := BuildTransition(rect); err == nil {
		t.Error("BuildTransition accepted non-square adjacency")
	}
}

func TestZeroRHS(t *testing.T) {
	a, _, _ := spdSystem(t, 20, 10)
	zero := make([]float64, 20)
	for name, run := range map[string]func() (Result, error){
		"CG":       func() (Result, error) { return CG(Ser(a), zero, DefaultSolveOptions(), nil) },
		"BiCGSTAB": func() (Result, error) { return BiCGSTAB(Ser(a), zero, DefaultSolveOptions(), nil) },
		"GMRES":    func() (Result, error) { return GMRES(Ser(a), zero, DefaultSolveOptions(), nil) },
	} {
		res, err := run()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !res.Converged {
			t.Errorf("%s: zero rhs not immediately converged", name)
		}
		for _, xi := range res.X {
			if xi != 0 {
				t.Errorf("%s: nonzero solution for zero rhs", name)
			}
		}
	}
}

func TestSolversAgreeAcrossFormats(t *testing.T) {
	// The same system solved on different formats must give the same
	// iterate counts and solution (kernels are numerically identical).
	a, b, _ := spdSystem(t, 150, 11)
	ref, err := CG(Ser(a), b, DefaultSolveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sparse.Implemented {
		m, err := sparse.ConvertFromCSR(a, f, sparse.Limits{DIAFill: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		res, err := CG(Ser(m), b, DefaultSolveOptions(), nil)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !res.Converged {
			t.Fatalf("%v: not converged", f)
		}
		if res.Iterations != ref.Iterations {
			// Formats reorder additions; allow a small iteration delta.
			d := res.Iterations - ref.Iterations
			if d < -2 || d > 2 {
				t.Errorf("%v: %d iterations vs CSR %d", f, res.Iterations, ref.Iterations)
			}
		}
		checkSolution(t, a, res.X, b, 1e-6, f.String())
	}
}

func TestQuickCGConvergesOnSPDFamilies(t *testing.T) {
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(12))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(150) + 50
		base, err := matgen.Random(n, n, 4, rng)
		if err != nil {
			return false
		}
		a, err := matgen.MakeSPD(base)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		res, err := CG(Ser(a), b, DefaultSolveOptions(), nil)
		return err == nil && res.Converged
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
