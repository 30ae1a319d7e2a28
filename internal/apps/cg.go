package apps

import (
	"context"
	"fmt"

	"repro/internal/vec"
)

// SolveOptions configures the linear solvers.
type SolveOptions struct {
	// Tol is the convergence tolerance on the relative residual
	// ||r|| / ||b||; the absolute residual norm is the progress indicator.
	Tol float64
	// MaxIters caps the iteration count.
	MaxIters int
	// Restart is the GMRES restart length (ignored by CG/BiCGSTAB).
	Restart int
	// Ctx optionally carries a cancellation context. Solvers check it once
	// per iteration and return early with an error wrapping ctx.Err(), the
	// partial iterate in Result.X. A nil Ctx (the zero value) disables the
	// check, so existing callers are unaffected.
	Ctx context.Context
}

// DefaultSolveOptions matches the experiments' settings.
func DefaultSolveOptions() SolveOptions {
	return SolveOptions{Tol: 1e-8, MaxIters: 10000, Restart: 30}
}

func (o SolveOptions) validate() error {
	if o.Tol <= 0 {
		return fmt.Errorf("apps: non-positive tolerance %g", o.Tol)
	}
	if o.MaxIters <= 0 {
		return fmt.Errorf("apps: non-positive MaxIters %d", o.MaxIters)
	}
	return nil
}

// CG solves A x = b for symmetric positive definite A with the conjugate
// gradient method. The progress indicator is ||r||_2 per iteration.
func CG(op Operator, b []float64, opt SolveOptions, hook Hook) (Result, error) {
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
	r := append([]float64(nil), b...) // r = b - A*0
	p := append([]float64(nil), b...)
	ap := make([]float64, n)
	bnorm := vec.Nrm2(b)
	if bnorm == 0 {
		return Result{Converged: true, X: x}, nil
	}
	ps := vec.NewPass(n)
	rsold := ps.Dot(r, r)
	res := Result{}
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := canceled(opt.Ctx); err != nil {
			res.X = x
			return res, fmt.Errorf("apps: CG canceled at iteration %d: %w", iter, err)
		}
		op.SpMV(ap, p)
		res.SpMVs++
		pap := ps.Dot(p, ap)
		if pap <= 0 {
			// Not SPD (or numerical breakdown): stop with what we have.
			res.X = x
			return res, fmt.Errorf("apps: CG breakdown, p'Ap = %g (matrix not SPD?)", pap)
		}
		alpha := rsold / pap
		rsnew := ps.AxpyTo(r, -alpha, ap, r)
		rnorm := vec.Norm(rsnew, r)
		res.Iterations = iter
		res.Residual = rnorm
		res.Progress = append(res.Progress, rnorm)
		if hook != nil {
			hook(iter, rnorm)
		}
		if rnorm <= opt.Tol*bnorm {
			ps.Axpy(alpha, p, x)
			res.Converged = true
			break
		}
		// x += alpha*p rides in the pass that turns p into the next
		// direction: three passes and ten vector streams an iteration.
		ps.CGDirection(x, alpha, p, r, rsnew/rsold)
		rsold = rsnew
	}
	res.X = x
	return res, nil
}
