package apps

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// GMRES solves A x = b for general square A with the restarted generalized
// minimal residual method GMRES(m): Arnoldi with modified Gram-Schmidt and
// Givens rotations maintain a running residual estimate, which is the
// progress indicator reported once per inner iteration (one SpMV each).
func GMRES(op Operator, b []float64, opt SolveOptions, hook Hook) (Result, error) {
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
	m := opt.Restart
	if m <= 0 {
		m = 30
	}
	if m > n {
		m = n
	}
	bnorm := vec.Nrm2(b)
	x := make([]float64, n)
	if bnorm == 0 {
		return Result{Converged: true, X: x}, nil
	}

	res := Result{}
	r := make([]float64, n)
	w := make([]float64, n)
	// Krylov basis (m+1 vectors) and Hessenberg column storage.
	V := make([][]float64, m+1)
	for i := range V {
		V[i] = make([]float64, n)
	}
	h := make([][]float64, m+1) // h[i][j], i row, j column
	for i := range h {
		h[i] = make([]float64, m)
	}
	cs := make([]float64, m)
	sn := make([]float64, m)
	g := make([]float64, m+1)
	y := make([]float64, m)
	ps := vec.NewPass(n)

	totalIter := 0
	for totalIter < opt.MaxIters {
		// r = b - A x
		op.SpMV(r, x)
		res.SpMVs++
		beta := vec.Norm(ps.AxpyTo(r, -1, r, b), r)
		if beta <= opt.Tol*bnorm {
			res.Converged = true
			break
		}
		ps.ScaleTo(V[0], 1/beta, r)
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		j := 0
		for ; j < m && totalIter < opt.MaxIters; j++ {
			if err := canceled(opt.Ctx); err != nil {
				res.X = x
				return res, fmt.Errorf("apps: GMRES canceled at iteration %d: %w", totalIter+1, err)
			}
			op.SpMV(w, V[j])
			res.SpMVs++
			// Modified Gram-Schmidt, each projection fused with the next
			// coefficient and the last one with ||w||².
			hij := ps.Dot(w, V[0])
			for i := 0; i < j; i++ {
				h[i][j] = hij
				hij = ps.AxpyDot(-hij, V[i], w, V[i+1])
			}
			h[j][j] = hij
			h[j+1][j] = vec.Norm(ps.AxpyTo(w, -hij, V[j], w), w)
			if h[j+1][j] > 1e-300 {
				ps.ScaleTo(V[j+1], 1/h[j+1][j], w)
			}
			// Apply previous Givens rotations to the new column.
			for i := 0; i < j; i++ {
				tmp := cs[i]*h[i][j] + sn[i]*h[i+1][j]
				h[i+1][j] = -sn[i]*h[i][j] + cs[i]*h[i+1][j]
				h[i][j] = tmp
			}
			// New rotation annihilating h[j+1][j].
			denom := math.Hypot(h[j][j], h[j+1][j])
			if denom < 1e-300 {
				cs[j], sn[j] = 1, 0
			} else {
				cs[j] = h[j][j] / denom
				sn[j] = h[j+1][j] / denom
			}
			h[j][j] = cs[j]*h[j][j] + sn[j]*h[j+1][j]
			h[j+1][j] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]

			totalIter++
			rnorm := math.Abs(g[j+1])
			res.Iterations = totalIter
			res.Residual = rnorm
			res.Progress = append(res.Progress, rnorm)
			if hook != nil {
				hook(totalIter, rnorm)
			}
			if rnorm <= opt.Tol*bnorm {
				j++
				break
			}
		}
		// Solve the j x j triangular system and update x.
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			for k := i + 1; k < j; k++ {
				s -= h[i][k] * y[k]
			}
			if math.Abs(h[i][i]) < 1e-300 {
				y[i] = 0
				continue
			}
			y[i] = s / h[i][i]
		}
		for i := 0; i < j; i++ {
			ps.Axpy(y[i], V[i], x)
		}
		if res.Residual <= opt.Tol*bnorm {
			res.Converged = true
			break
		}
	}
	res.X = x
	return res, nil
}
