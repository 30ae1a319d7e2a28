package apps

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

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

// IdentityPreconditioner turns PCG back into plain CG; useful for testing
// and as a no-op default.
type IdentityPreconditioner struct{}

// Apply implements Preconditioner.
func (IdentityPreconditioner) Apply(z, r []float64) { copy(z, r) }

// PCG solves A x = b for SPD A with the preconditioned conjugate gradient
// method. One SpMV plus one preconditioner application per iteration; the
// progress indicator is ||r||_2 (the unpreconditioned residual, so traces
// are comparable with CG's).
func PCG(op Operator, m Preconditioner, b []float64, opt SolveOptions, hook Hook) (Result, error) {
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
	if m == nil {
		m = IdentityPreconditioner{}
	}
	bnorm := vec.Nrm2(b)
	x := make([]float64, n)
	if bnorm == 0 {
		return Result{Converged: true, X: x}, nil
	}
	ps := vec.NewPass(n)
	apply := m.Apply
	if j, ok := m.(*JacobiPreconditioner); ok {
		// This package's own preconditioner runs as a pass of the solve.
		apply = func(z, r []float64) { ps.MulTo(z, r, j.invDiag) }
	}
	r := append([]float64(nil), b...)
	z := make([]float64, n)
	apply(z, r)
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := ps.Dot(r, z)
	res := Result{}
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := canceled(opt.Ctx); err != nil {
			res.X = x
			return res, fmt.Errorf("apps: PCG canceled at iteration %d: %w", iter, err)
		}
		op.SpMV(ap, p)
		res.SpMVs++
		pap := ps.Dot(p, ap)
		if pap <= 0 {
			res.X = x
			return res, fmt.Errorf("apps: PCG breakdown, p'Ap = %g (matrix not SPD?)", pap)
		}
		alpha := rz / pap
		rnorm := vec.Norm(ps.AxpyTo(r, -alpha, ap, r), r)
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
		apply(z, r)
		rzNew := ps.Dot(r, z)
		if math.Abs(rz) < 1e-300 {
			ps.Axpy(alpha, p, x)
			res.X = x
			return res, fmt.Errorf("apps: PCG breakdown, r'z = %g", rz)
		}
		// As in CG, x += alpha*p rides in the direction pass.
		ps.CGDirection(x, alpha, p, z, rzNew/rz)
		rz = rzNew
	}
	res.X = x
	return res, nil
}
