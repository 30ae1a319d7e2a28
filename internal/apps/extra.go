package apps

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Jacobi solves A x = b for diagonally dominant A with the damped Jacobi
// iteration x' = x + omega * D^{-1} (b - A x). One SpMV per iteration; the
// progress indicator is ||b - A x||_2. diag must hold the matrix diagonal
// (the Operator interface intentionally hides storage, so the caller
// extracts it once up front).
func Jacobi(op Operator, diag, b []float64, omega float64, opt SolveOptions, hook Hook) (Result, error) {
	sv, n, err := newSolve("Jacobi", op, opt.Ctx, hook)
	if err == nil {
		err = opt.validate()
	}
	if err != nil {
		return Result{}, err
	}
	if len(b) != n || len(diag) != n {
		return Result{}, fmt.Errorf("apps: Jacobi rhs/diag lengths %d/%d for %d unknowns", len(b), len(diag), n)
	}
	if omega <= 0 || omega > 1 {
		return Result{}, fmt.Errorf("apps: Jacobi damping %g outside (0, 1]", omega)
	}
	for i, d := range diag {
		if d == 0 {
			return Result{}, fmt.Errorf("apps: Jacobi zero diagonal at row %d", i)
		}
	}
	bnorm := vec.Nrm2(b)
	x := make([]float64, n)
	if bnorm == 0 {
		return Result{Converged: true, X: x}, nil
	}
	ax := make([]float64, n)
	ps := vec.NewPass(n)
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := sv.canceled(iter); err != nil {
			return sv.exit(x, err)
		}
		sv.apply(ax, x)
		rr := ps.JacobiSweep(x, b, ax, omega, diag)
		rnorm := math.Sqrt(rr)
		if !vec.SafeSumSq(rr) {
			// The sweep keeps no residual to take the scaled norm of;
			// rebuild it in ax, which the next SpMV overwrites anyway.
			ps.AxpyTo(ax, -1, ax, b)
			rnorm = vec.Nrm2(ax)
		}
		sv.record(iter, rnorm)
		if rnorm <= opt.Tol*bnorm {
			sv.Converged = true
			break
		}
	}
	return sv.exit(x, nil)
}

// PowerMethod computes the dominant eigenvalue and eigenvector of A by
// power iteration. One SpMV per iteration; the progress indicator is the
// Rayleigh-quotient delta |lambda_k - lambda_{k-1}|. Returns the final
// eigenvalue estimate in Residual's place via the Eigen field of
// PowerResult.
type PowerResult struct {
	Result
	// Eigenvalue is the dominant eigenvalue estimate.
	Eigenvalue float64
}

// PowerMethod runs the power iteration from the all-ones vector.
func PowerMethod(op Operator, opt SolveOptions, hook Hook) (PowerResult, error) {
	sv, n, err := newSolve("power method", op, opt.Ctx, hook)
	if err == nil {
		err = opt.validate()
	}
	if err != nil {
		return PowerResult{}, err
	}
	x := make([]float64, n)
	x0 := 1 / math.Sqrt(float64(n))
	for i := range x {
		x[i] = x0
	}
	sv.X = x // updated in place
	ax := make([]float64, n)
	ps := vec.NewPass(n)
	lambda := 0.0
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := sv.canceled(iter); err != nil {
			return PowerResult{Result: sv.Result}, err
		}
		sv.apply(ax, x)
		ss, newLambda := ps.Dot2(ax, x)
		norm := vec.Norm(ss, ax)
		if norm == 0 {
			// A x = 0: x is in the null space; the dominant eigenvalue of
			// the restriction is 0 and iteration cannot continue.
			sv.Converged = true
			return PowerResult{Result: sv.Result}, nil
		}
		ps.ScaleTo(x, 1/norm, ax)
		delta := math.Abs(newLambda - lambda)
		lambda = newLambda
		sv.record(iter, delta)
		if iter > 1 && delta <= opt.Tol*math.Max(1, math.Abs(lambda)) {
			sv.Converged = true
			break
		}
	}
	return PowerResult{Result: sv.Result, Eigenvalue: lambda}, nil
}
