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
	sv, bnorm, err := begin("BiCGSTAB", op, b, opt, hook)
	if err != nil || bnorm == 0 {
		return sv.Result, err
	}
	n := len(b)
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	rhat := append([]float64(nil), b...) // shadow residual r^ = r0
	p := make([]float64, n)
	v := make([]float64, n)
	s := make([]float64, n)
	t := make([]float64, n)
	ps := vec.NewPass(n)
	rho, alpha, omega := 1.0, 1.0, 1.0
	// rnorm and rhoNew are ||r|| and rhat'r for the r the iteration starts
	// from: b here, afterwards whatever the pass that wrote r summed.
	rnorm, rhoNew := bnorm, ps.Dot(rhat, r)
	// Five passes and eighteen vector streams an iteration.
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := sv.canceled(iter); err != nil {
			return sv.exit(x, err)
		}
		if math.Abs(rhoNew) < 1e-300 {
			sv.record(iter, rnorm)
			return sv.exit(x, fmt.Errorf("apps: BiCGSTAB breakdown, rho = %g", rhoNew))
		}
		beta := (rhoNew / rho) * (alpha / omega)
		rho = rhoNew
		ps.BiCGSTABDirection(p, r, beta, omega, v)
		sv.apply(v, p)
		den := ps.Dot(rhat, v)
		if math.Abs(den) < 1e-300 {
			sv.record(iter, rnorm)
			return sv.exit(x, fmt.Errorf("apps: BiCGSTAB breakdown, rhat'v = %g", den))
		}
		alpha = rho / den
		snorm := vec.Norm(ps.AxpyTo(s, -alpha, v, r), s)
		if snorm <= opt.Tol*bnorm {
			ps.Axpy(alpha, p, x)
			sv.record(iter, snorm)
			sv.Converged = true
			break
		}
		sv.apply(t, s)
		tt, ts := ps.Dot2(t, s)
		if tt < 1e-300 {
			sv.record(iter, snorm)
			return sv.exit(x, fmt.Errorf("apps: BiCGSTAB breakdown, ||t|| = 0"))
		}
		omega = ts / tt
		if math.Abs(omega) < 1e-300 {
			sv.record(iter, snorm)
			return sv.exit(x, fmt.Errorf("apps: BiCGSTAB breakdown, omega = 0"))
		}
		var rr float64
		rr, rhoNew = ps.BiCGSTABUpdate(x, r, alpha, p, omega, s, t, rhat)
		rnorm = vec.Norm(rr, r)
		sv.record(iter, rnorm)
		if rnorm <= opt.Tol*bnorm {
			sv.Converged = true
			break
		}
	}
	return sv.exit(x, nil)
}
