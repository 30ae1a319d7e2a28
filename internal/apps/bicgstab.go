package apps

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// BiCGSTAB solves A x = b for general square A with the bi-conjugate
// gradient stabilized method (van der Vorst). Two SpMV calls per iteration;
// the progress indicator is ||r||_2.
func BiCGSTAB(op Operator, b []float64, opt SolveOptions, hook Hook) (Result, error) {
	n, err := squareDims(op)
	if err != nil {
		return Result{}, err
	}
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	if len(b) != n {
		return Result{}, fmt.Errorf("apps: rhs length %d for %d unknowns", len(b), n)
	}
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	rhat := append([]float64(nil), b...) // shadow residual r^ = r0
	p := make([]float64, n)
	v := make([]float64, n)
	s := make([]float64, n)
	t := make([]float64, n)
	bnorm := vec.Nrm2(b)
	if bnorm == 0 {
		return Result{Converged: true, X: x}, nil
	}
	ps := vec.NewPass(n)
	rho, alpha, omega := 1.0, 1.0, 1.0
	// rnorm and rhoNew are ||r|| and rhat'r for the r the iteration starts
	// from: b here, afterwards whatever the pass that wrote r summed.
	rnorm, rhoNew := bnorm, ps.Dot(rhat, r)
	res := Result{}
	record := func(iter int, rnorm float64) {
		res.Iterations = iter
		res.Residual = rnorm
		res.Progress = append(res.Progress, rnorm)
		if hook != nil {
			hook(iter, rnorm)
		}
	}
	// Five passes and eighteen vector streams an iteration.
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := canceled(opt.Ctx); err != nil {
			res.X = x
			return res, fmt.Errorf("apps: BiCGSTAB canceled at iteration %d: %w", iter, err)
		}
		if math.Abs(rhoNew) < 1e-300 {
			record(iter, rnorm)
			res.X = x
			return res, fmt.Errorf("apps: BiCGSTAB breakdown, rho = %g", rhoNew)
		}
		beta := (rhoNew / rho) * (alpha / omega)
		rho = rhoNew
		ps.BiCGSTABDirection(p, r, beta, omega, v)
		op.SpMV(v, p)
		res.SpMVs++
		den := ps.Dot(rhat, v)
		if math.Abs(den) < 1e-300 {
			record(iter, rnorm)
			res.X = x
			return res, fmt.Errorf("apps: BiCGSTAB breakdown, rhat'v = %g", den)
		}
		alpha = rho / den
		snorm := vec.Norm(ps.AxpyTo(s, -alpha, v, r), s)
		if snorm <= opt.Tol*bnorm {
			ps.Axpy(alpha, p, x)
			record(iter, snorm)
			res.Converged = true
			res.X = x
			return res, nil
		}
		op.SpMV(t, s)
		res.SpMVs++
		tt, ts := ps.Dot2(t, s)
		if tt < 1e-300 {
			record(iter, snorm)
			res.X = x
			return res, fmt.Errorf("apps: BiCGSTAB breakdown, ||t|| = 0")
		}
		omega = ts / tt
		if math.Abs(omega) < 1e-300 {
			record(iter, snorm)
			res.X = x
			return res, fmt.Errorf("apps: BiCGSTAB breakdown, omega = 0")
		}
		var rr float64
		rr, rhoNew = ps.BiCGSTABUpdate(x, r, alpha, p, omega, s, t, rhat)
		rnorm = vec.Norm(rr, r)
		record(iter, rnorm)
		if rnorm <= opt.Tol*bnorm {
			res.Converged = true
			break
		}
	}
	res.X = x
	return res, nil
}
