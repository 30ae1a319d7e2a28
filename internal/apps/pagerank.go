package apps

import (
	"context"
	"fmt"

	"repro/internal/sparse"
	"repro/internal/vec"
)

// PageRankOptions configures the power iteration.
type PageRankOptions struct {
	// Damping is the damping factor (0.85 in the original paper).
	Damping float64
	// Tol is the L1 convergence tolerance on the rank-vector delta, the
	// loop's progress indicator.
	Tol float64
	// MaxIters caps the iteration count.
	MaxIters int
	// Ctx optionally carries a cancellation context, checked once per
	// iteration; nil disables the check (see SolveOptions.Ctx).
	Ctx context.Context
}

// DefaultPageRankOptions matches common PageRank practice.
func DefaultPageRankOptions() PageRankOptions {
	return PageRankOptions{Damping: 0.85, Tol: 1e-8, MaxIters: 1000}
}

// BuildTransition turns an adjacency matrix (A[i][j] != 0 meaning an edge
// i -> j) into the column-stochastic transition matrix P = normalize(A^T)
// plus the list of dangling nodes (no out-links). The rank update is then
// x' = d*P*x + teleport.
func BuildTransition(adj *sparse.CSR) (*sparse.CSR, []bool, error) {
	rows, cols := adj.Dims()
	if rows != cols {
		return nil, nil, fmt.Errorf("apps: adjacency is %dx%d, want square", rows, cols)
	}
	// Out-degree of node i = weight sum of row i.
	outDeg := make([]float64, rows)
	dangling := make([]bool, rows)
	for i := 0; i < rows; i++ {
		var s float64
		for k := adj.Ptr[i]; k < adj.Ptr[i+1]; k++ {
			v := adj.Data[k]
			if v < 0 {
				v = -v
			}
			s += v
		}
		outDeg[i] = s
		dangling[i] = s == 0
	}
	// P = A^T with column j (origin node) scaled by 1/outDeg[j].
	at := adj.Transpose()
	ptr := append([]int(nil), at.Ptr...)
	col := append([]int32(nil), at.Col...)
	data := append([]float64(nil), at.Data...)
	for k, c := range col {
		v := data[k]
		if v < 0 {
			v = -v
		}
		data[k] = v / outDeg[c] // outDeg > 0 whenever the column has entries
	}
	p, err := sparse.NewCSR(rows, cols, ptr, col, data)
	if err != nil {
		return nil, nil, fmt.Errorf("apps: building transition matrix: %w", err)
	}
	return p, dangling, nil
}

// PageRank runs the power iteration x' = d*P*x + ((1-d) + d*danglingMass)/n
// on a column-stochastic transition operator (see BuildTransition). The
// progress indicator is the L1 delta ||x' - x||_1.
func PageRank(op Operator, dangling []bool, opt PageRankOptions, hook Hook) (Result, error) {
	sv, n, err := newSolve("PageRank", op, opt.Ctx, hook)
	if err != nil {
		return Result{}, err
	}
	if len(dangling) != n {
		return Result{}, fmt.Errorf("apps: dangling list has %d entries for %d nodes", len(dangling), n)
	}
	if opt.Damping <= 0 || opt.Damping >= 1 {
		return Result{}, fmt.Errorf("apps: damping %g outside (0,1)", opt.Damping)
	}
	if opt.MaxIters <= 0 || opt.Tol <= 0 {
		return Result{}, fmt.Errorf("apps: invalid MaxIters %d / Tol %g", opt.MaxIters, opt.Tol)
	}
	x := make([]float64, n)
	// The mass on dangling nodes, to be spread uniformly: every entry
	// starts at 1/n, afterwards the update pass sums it as it writes x.
	var mass float64
	x0 := 1 / float64(n)
	for i := range x {
		x[i] = x0
		if dangling[i] {
			mass += x0
		}
	}
	next := make([]float64, n)
	ps := vec.NewPass(n)
	for iter := 1; iter <= opt.MaxIters; iter++ {
		if err := sv.canceled(iter); err != nil {
			return sv.exit(x, err)
		}
		sv.apply(next, x)
		teleport := ((1 - opt.Damping) + opt.Damping*mass) / float64(n)
		var delta float64
		delta, mass = ps.PageRankUpdate(next, x, dangling, opt.Damping, teleport)
		x, next = next, x
		sv.record(iter, delta)
		if delta <= opt.Tol {
			sv.Converged = true
			break
		}
	}
	return sv.exit(x, nil)
}
