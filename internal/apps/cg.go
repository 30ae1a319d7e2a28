package apps

import (
	"context"
	"fmt"
	"math"

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

// Preconditioner applies z = M^{-1} r for a symmetric positive definite
// preconditioner M.
type Preconditioner interface {
	Apply(z, r []float64)
}

// JacobiPreconditioner is the diagonal (Jacobi) preconditioner M = diag(A).
type JacobiPreconditioner struct {
	invDiag []float64
}

// NewJacobiPreconditioner builds the preconditioner from the matrix
// diagonal. Zero diagonal entries are rejected.
func NewJacobiPreconditioner(diag []float64) (*JacobiPreconditioner, error) {
	inv := make([]float64, len(diag))
	for i, d := range diag {
		if d == 0 {
			return nil, fmt.Errorf("apps: Jacobi preconditioner zero diagonal at %d", i)
		}
		inv[i] = 1 / d
	}
	return &JacobiPreconditioner{invDiag: inv}, nil
}

// Apply implements Preconditioner.
func (p *JacobiPreconditioner) Apply(z, r []float64) { vec.MulParallel(z, r, p.invDiag) }

// CG solves A x = b for symmetric positive definite A with the conjugate
// gradient method: PCG with no preconditioner. The progress indicator is
// ||r||_2 per iteration.
func CG(op Operator, b []float64, opt SolveOptions, hook Hook) (Result, error) {
	return pcg("CG", op, nil, b, opt, hook)
}

// PCG solves A x = b for SPD A with the preconditioned conjugate gradient
// method. One SpMV plus one preconditioner application per iteration; the
// progress indicator is ||r||_2 (the unpreconditioned residual, so traces
// are comparable with CG's). A nil m is plain CG.
func PCG(op Operator, m Preconditioner, b []float64, opt SolveOptions, hook Hook) (Result, error) {
	return pcg("PCG", op, m, b, opt, hook)
}

// pcg is CG and PCG. With no preconditioner z is r itself and r·r comes
// from the pass that writes r, so the plain solve pays no copy and no dot
// for it: three passes and ten vector streams an iteration.
func pcg(name string, op Operator, m Preconditioner, b []float64, opt SolveOptions, hook Hook) (Result, error) {
	sv, bnorm, err := begin(name, op, b, opt, hook)
	if err != nil || bnorm == 0 {
		return sv.Result, err
	}
	n := len(b)
	ps := vec.NewPass(n)
	x := make([]float64, n)
	r := append([]float64(nil), b...) // r = b - A*0
	z := r
	var apply func(z, r []float64)
	if m != nil {
		apply = m.Apply
		if j, ok := m.(*JacobiPreconditioner); ok {
			// This package's own preconditioner runs as a pass of the solve.
			apply = func(z, r []float64) { ps.MulTo(z, r, j.invDiag) }
		}
		z = make([]float64, n)
		apply(z, r)
	}
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := ps.Dot(r, z)
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := sv.canceled(iter); err != nil {
			return sv.exit(x, err)
		}
		sv.apply(ap, p)
		pap := ps.Dot(p, ap)
		if pap <= 0 {
			// Not SPD (or numerical breakdown): stop with what we have.
			return sv.exit(x, fmt.Errorf("apps: %s breakdown, p'Ap = %g (matrix not SPD?)", name, pap))
		}
		alpha := rz / pap
		rr := ps.AxpyTo(r, -alpha, ap, r)
		rnorm := vec.Norm(rr, r)
		sv.record(iter, rnorm)
		if rnorm <= opt.Tol*bnorm {
			ps.Axpy(alpha, p, x)
			sv.Converged = true
			break
		}
		rzNew := rr
		if m != nil {
			apply(z, r)
			rzNew = ps.Dot(r, z)
			if math.Abs(rz) < 1e-300 {
				ps.Axpy(alpha, p, x)
				return sv.exit(x, fmt.Errorf("apps: %s breakdown, r'z = %g", name, rz))
			}
		}
		// x += alpha*p rides in the pass that turns p into the next
		// direction.
		ps.CGDirection(x, alpha, p, z, rzNew/rz)
		rz = rzNew
	}
	return sv.exit(x, nil)
}
