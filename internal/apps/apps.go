// Package apps implements the four SpMV-based applications of the paper's
// evaluation — PageRank, CG, BiCGSTAB and GMRES — against a small Operator
// interface, so the same solver code runs on a fixed-format matrix or on the
// selector's adaptive wrapper. Every solver reports a per-iteration progress
// indicator through an optional hook; that indicator is exactly what the
// stage-1 tripcount predictor consumes.
package apps

import (
	"context"
	"fmt"

	"repro/internal/sparse"
)

// Operator is the matrix contract the solvers need: y = A*x plus the
// dimensions. sparse matrices and core.Adaptive both satisfy it.
type Operator interface {
	SpMV(y, x []float64)
	Dims() (rows, cols int)
}

// Hook observes one solver iteration: iter counts from 1, progress is the
// solver's convergence indicator at that iteration (residual norm or delta).
type Hook func(iter int, progress float64)

// SwapPointer is implemented and called by nothing in this module: the
// adaptive wrapper installs a conversion itself, inside RecordProgress, so a
// solver has no iteration-boundary duty. The declaration remains only
// because benchmark/ compiles against it and leaves with that module's next
// change (ROADMAP 10(d)).
type SwapPointer interface {
	SwapPoint()
}

// Result summarizes a solver run.
type Result struct {
	// Iterations is the number of iterations executed.
	Iterations int
	// Converged reports whether the tolerance was met within MaxIters.
	Converged bool
	// Residual is the final progress indicator value.
	Residual float64
	// SpMVs is the exact number of SpMV calls the solver issued. It differs
	// from Iterations where the method's structure does: BiCGSTAB pays two
	// per iteration, restarted GMRES pays one per Arnoldi step plus one per
	// restart for the explicit residual. Telemetry attributes per-format
	// SpMV work from this count, not from an iterations-based approximation.
	SpMVs int
	// Progress is the full indicator trace, one entry per iteration.
	Progress []float64
	// X is the solution (or rank vector for PageRank).
	X []float64
}

// parOp wraps a sparse matrix to use its goroutine-parallel kernel.
type parOp struct{ m sparse.Matrix }

func (p parOp) SpMV(y, x []float64) { p.m.SpMVParallel(y, x) }
func (p parOp) Dims() (r, c int)    { return p.m.Dims() }

// Par adapts a sparse matrix into an Operator that uses the parallel SpMV
// kernel, which is how the applications run in the experiments.
func Par(m sparse.Matrix) Operator { return parOp{m} }

// Ser adapts a sparse matrix into an Operator using the serial kernel.
type serOp struct{ m sparse.Matrix }

func (s serOp) SpMV(y, x []float64) { s.m.SpMV(y, x) }
func (s serOp) Dims() (r, c int)    { return s.m.Dims() }

// Ser adapts a sparse matrix into a serial-kernel Operator.
func Ser(m sparse.Matrix) Operator { return serOp{m} }

// canceled reports the context's error, tolerating a nil context so the
// pre-existing call sites (which never set SolveOptions.Ctx) keep working.
func canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// squareDims validates the operator is square and returns n.
func squareDims(op Operator) (int, error) {
	r, c := op.Dims()
	if r != c {
		return 0, fmt.Errorf("apps: operator is %dx%d, want square", r, c)
	}
	if r == 0 {
		return 0, fmt.Errorf("apps: empty operator")
	}
	return r, nil
}
