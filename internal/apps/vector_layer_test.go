package apps

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// solverRun is what a solver leaves behind that must not depend on how many
// workers ran its vector passes.
type solverRun struct {
	x, progress []float64
	iterations  int
}

func (r solverRun) equal(o solverRun) bool {
	if r.iterations != o.iterations || len(r.x) != len(o.x) || len(r.progress) != len(o.progress) {
		return false
	}
	for i := range r.x {
		if r.x[i] != o.x[i] {
			return false
		}
	}
	for i := range r.progress {
		if r.progress[i] != o.progress[i] {
			return false
		}
	}
	return true
}

// sevenSolvers returns all seven solvers as closures over one operand each,
// capped at iters iterations and with a tolerance none of them reaches, so
// every run does the same fixed amount of work. side is the grid edge: the
// systems have side² unknowns.
func sevenSolvers(t testing.TB, side, iters int) map[string]func(wrap func(sparse.Matrix) Operator) solverRun {
	t.Helper()
	must := func(a *sparse.CSR, err error) *sparse.CSR {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	spd := must(matgen.Stencil2D(side))
	n, _ := spd.Dims()
	rng := rand.New(rand.NewSource(21))
	general := must(matgen.MakeDominant(must(matgen.UniformRows(n, n, 5, rng)), 0.02))
	adj := must(matgen.PowerLaw(n, n, 6, 2.1, rng))
	trans, dangling, err := BuildTransition(adj)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 0.5 + rng.Float64()
	}
	pre, err := NewJacobiPreconditioner(spd.Diag())
	if err != nil {
		t.Fatal(err)
	}
	opt := SolveOptions{Tol: 1e-30, MaxIters: iters, Restart: 10}
	linear := func(r Result, err error) solverRun {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return solverRun{r.X, r.Progress, r.Iterations}
	}
	type wrapFn = func(sparse.Matrix) Operator
	return map[string]func(wrapFn) solverRun{
		"cg":       func(w wrapFn) solverRun { return linear(CG(w(spd), b, opt, nil)) },
		"pcg":      func(w wrapFn) solverRun { return linear(PCG(w(spd), pre, b, opt, nil)) },
		"bicgstab": func(w wrapFn) solverRun { return linear(BiCGSTAB(w(general), b, opt, nil)) },
		"gmres":    func(w wrapFn) solverRun { return linear(GMRES(w(general), b, opt, nil)) },
		"jacobi":   func(w wrapFn) solverRun { return linear(Jacobi(w(general), general.Diag(), b, 0.9, opt, nil)) },
		"power": func(w wrapFn) solverRun {
			r, err := PowerMethod(w(spd), opt, nil)
			return linear(r.Result, err)
		},
		"pagerank": func(w wrapFn) solverRun {
			return linear(PageRank(w(trans), dangling, PageRankOptions{Damping: 0.85, Tol: 1e-300, MaxIters: iters}, nil))
		},
	}
}

// TestSolversIndependentOfWorkers: for each of the seven solvers the
// iterate, the progress trace and the iteration count are the same bits at
// GOMAXPROCS 1, 2 and 4 and under apps.Ser and apps.Par, on 265² = 70225
// unknowns — past the vector layer's parallel threshold, and a multiple of
// neither its block nor its tile.
func TestSolversIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, solve := range sevenSolvers(t, 265, 12) {
		runtime.GOMAXPROCS(1)
		want := solve(Ser)
		if want.iterations != 12 || len(want.progress) != 12 {
			t.Fatalf("%s: %d iterations, %d progress values, want 12 of each", name, want.iterations, len(want.progress))
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			if got := solve(Ser); !got.equal(want) {
				t.Errorf("%s: apps.Ser at GOMAXPROCS=%d differs from GOMAXPROCS=1", name, procs)
			}
			if got := solve(Par); !got.equal(want) {
				t.Errorf("%s: apps.Par at GOMAXPROCS=%d differs from apps.Ser at GOMAXPROCS=1", name, procs)
			}
		}
	}
}

// TestConcurrentSolvesShareTheTeam runs eight CG solves at once, their
// vector passes and SpMVs all dispatching on the one default team, and
// holds each to the bits of a solve that ran alone. Run under -race.
func TestConcurrentSolvesShareTheTeam(t *testing.T) {
	solve := sevenSolvers(t, 265, 12)["cg"]
	want := solve(Par)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := solve(Par); !got.equal(want) {
				t.Errorf("solve %d differs from the solve that ran alone", g)
			}
		}()
	}
	wg.Wait()
}

func fromDense(t *testing.T, n int, dense []float64) *sparse.CSR {
	t.Helper()
	a, err := sparse.FromDense(n, n, dense)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestBreakdownExitsSurvive drives every breakdown exit with the smallest
// input that reaches it and checks what the caller gets back: the error that
// names the quantity, the iteration it happened in, the progress recorded
// for it and the partial iterate.
func TestBreakdownExitsSurvive(t *testing.T) {
	opt := DefaultSolveOptions()
	tiny := 2e-150 // squares to 4e-300: past the 1e-300 guards only in sums

	t.Run("cg p'Ap", func(t *testing.T) {
		// Indefinite: the first direction is fine, the second is not, so the
		// iterate handed back carries exactly the first step.
		a := fromDense(t, 2, []float64{1, 0, 0, -2})
		res, err := CG(Ser(a), []float64{2, 1}, opt, nil)
		if err == nil || !strings.Contains(err.Error(), "p'Ap") {
			t.Fatalf("err = %v, want the p'Ap breakdown", err)
		}
		// Step 1: alpha = r·r / p·Ap = 5/2 along p = b.
		if res.Iterations != 1 || res.X[0] != 5 || res.X[1] != 2.5 {
			t.Errorf("iterations %d, x = %v, want 1 and [5 2.5]", res.Iterations, res.X)
		}
	})
	t.Run("pcg p'Ap", func(t *testing.T) {
		a := fromDense(t, 2, []float64{-1, 0, 0, -1})
		res, err := PCG(Ser(a), nil, []float64{1, 1}, opt, nil)
		if err == nil || !strings.Contains(err.Error(), "p'Ap") || res.X == nil {
			t.Fatalf("err = %v, x = %v, want the p'Ap breakdown and an iterate", err, res.X)
		}
	})
	t.Run("pcg r'z", func(t *testing.T) {
		// r'z = b·b = 8e-302 is below the guard while p'Ap is not zero:
		// the step is taken, recorded, and then the recurrence gives up.
		a := fromDense(t, 2, []float64{1, 0, 0, 3})
		b := []float64{tiny / 10, tiny / 10}
		res, err := PCG(Ser(a), nil, b, opt, nil)
		if err == nil || !strings.Contains(err.Error(), "r'z") {
			t.Fatalf("err = %v, want the r'z breakdown", err)
		}
		// alpha = b·b / b·Ab = 1/2: the step that was taken must be in x.
		if res.Iterations != 1 || len(res.Progress) != 1 || math.Abs(res.X[0]-b[0]/2) > 1e-15*b[0] || math.Abs(res.X[1]-b[1]/2) > 1e-15*b[1] {
			t.Errorf("iterations %d, progress %v, x = %v, want one step of b/2", res.Iterations, res.Progress, res.X)
		}
	})
	t.Run("bicgstab rho", func(t *testing.T) {
		a := fromDense(t, 2, []float64{1, 0, 0, 1})
		b := []float64{tiny / 10, tiny / 10}
		res, err := BiCGSTAB(Ser(a), b, opt, nil)
		if err == nil || !strings.Contains(err.Error(), "rho") {
			t.Fatalf("err = %v, want the rho breakdown", err)
		}
		if res.Iterations != 1 || len(res.Progress) != 1 || res.Progress[0] != vec.Nrm2(b) || res.SpMVs != 0 {
			t.Errorf("iterations %d, progress %v, %d SpMVs, want 1, [||b||], 0", res.Iterations, res.Progress, res.SpMVs)
		}
	})
	t.Run("bicgstab rhat'v", func(t *testing.T) {
		// Skew-symmetric: b'Ab = 0 exactly.
		a := fromDense(t, 2, []float64{0, 1, -1, 0})
		res, err := BiCGSTAB(Ser(a), []float64{1, 1}, opt, nil)
		if err == nil || !strings.Contains(err.Error(), "rhat'v") {
			t.Fatalf("err = %v, want the rhat'v breakdown", err)
		}
		if res.Iterations != 1 || res.Progress[0] != math.Sqrt2 || res.SpMVs != 1 || res.X[0] != 0 {
			t.Errorf("iterations %d, progress %v, %d SpMVs, x = %v", res.Iterations, res.Progress, res.SpMVs, res.X)
		}
	})
	t.Run("bicgstab ||t||", func(t *testing.T) {
		// rho and rhat'v are 8e-300; s is a twentieth of b, so t·t is 2e-302.
		// ||s|| itself comes from the scaled fallback: s·s is below 1e-280.
		a := fromDense(t, 2, []float64{1, 0, 0, 1.1})
		b := []float64{tiny, tiny}
		res, err := BiCGSTAB(Ser(a), b, opt, nil)
		if err == nil || !strings.Contains(err.Error(), "||t||") {
			t.Fatalf("err = %v, want the ||t|| breakdown", err)
		}
		if res.Iterations != 1 || res.SpMVs != 2 || !(res.Progress[0] > 1e-152 && res.Progress[0] < 2e-151) || res.X[0] != 0 {
			t.Errorf("iterations %d, %d SpMVs, progress %v, x = %v", res.Iterations, res.SpMVs, res.Progress, res.X)
		}
	})
	t.Run("bicgstab omega", func(t *testing.T) {
		// alpha = 2.25/0.75 = 3, s = (1,-3,-2,2), t = As = (3,1,-2,-2): t·s = 0
		// in exact small integers, t·t = 18.
		a := fromDense(t, 4, []float64{
			0, -1, 0, 0,
			1, 0, 0, 0,
			0, 0, 1, 0,
			0, 0, 0, -1,
		})
		res, err := BiCGSTAB(Ser(a), []float64{1, 0, 1, 0.5}, opt, nil)
		if err == nil || !strings.Contains(err.Error(), "omega") {
			t.Fatalf("err = %v, want the omega breakdown", err)
		}
		if res.Iterations != 1 || res.SpMVs != 2 || res.Progress[0] != math.Sqrt(18) || res.X[0] != 0 {
			t.Errorf("iterations %d, %d SpMVs, progress %v, x = %v", res.Iterations, res.SpMVs, res.Progress, res.X)
		}
	})
}

// TestBiCGSTABHalfStepOnEarlyExit: when ||s|| already meets the tolerance
// the iteration stops before its second SpMV, and x must still receive
// alpha*p. With A = 2I that half step is the whole solution.
func TestBiCGSTABHalfStepOnEarlyExit(t *testing.T) {
	a := fromDense(t, 3, []float64{2, 0, 0, 0, 2, 0, 0, 0, 2})
	b := []float64{1, -4, 0.5}
	res, err := BiCGSTAB(Ser(a), b, DefaultSolveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 || res.SpMVs != 1 {
		t.Fatalf("converged %v after %d iterations and %d SpMVs, want true, 1, 1", res.Converged, res.Iterations, res.SpMVs)
	}
	for i := range b {
		if res.X[i] != b[i]/2 {
			t.Errorf("x[%d] = %g, want %g", i, res.X[i], b[i]/2)
		}
	}
}

// TestCGAppliesDeferredStepOnConvergence: the step along p rides in the
// next iteration's direction pass, so the iteration that converges has to
// apply it on its own. A = 2I converges in one iteration to b/2.
func TestCGAppliesDeferredStepOnConvergence(t *testing.T) {
	a := fromDense(t, 3, []float64{2, 0, 0, 0, 2, 0, 0, 0, 2})
	b := []float64{1, -4, 0.5}
	for name, solve := range map[string]func() (Result, error){
		"cg":  func() (Result, error) { return CG(Ser(a), b, DefaultSolveOptions(), nil) },
		"pcg": func() (Result, error) { return PCG(Ser(a), nil, b, DefaultSolveOptions(), nil) },
	} {
		res, err := solve()
		if err != nil || !res.Converged || res.Iterations != 1 {
			t.Fatalf("%s: err %v, converged %v, %d iterations", name, err, res.Converged, res.Iterations)
		}
		for i := range b {
			if res.X[i] != b[i]/2 {
				t.Errorf("%s: x[%d] = %g, want %g", name, i, res.X[i], b[i]/2)
			}
		}
	}
}

// TestResidualNormFallsBackToScaled: a right-hand side whose squares
// overflow must report the finite norm the scaled Nrm2 gives, not +Inf.
func TestResidualNormFallsBackToScaled(t *testing.T) {
	// A = I: Jacobi's first residual is b itself.
	a := fromDense(t, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
	b := []float64{1e200, 1e-200, 1e200}
	res, err := Jacobi(Ser(a), []float64{1, 1, 1}, b, 0.5, SolveOptions{Tol: 1e-8, MaxIters: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Sqrt2 * 1e200; math.IsInf(res.Progress[0], 0) || math.Abs(res.Progress[0]-want) > 1e186 {
		t.Errorf("Jacobi residual norm %g, want %g", res.Progress[0], want)
	}
	// GMRES takes ||b - A*0|| the same way on its first restart.
	g, err := GMRES(Ser(a), b, SolveOptions{Tol: 1e-8, MaxIters: 2, Restart: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range g.Progress {
		if math.IsInf(p, 0) || math.IsNaN(p) {
			t.Errorf("GMRES progress %v is not finite", g.Progress)
		}
	}
}
