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
	"repro/internal/vec"
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

// solve is the scaffold the seven solvers share: the one counted SpMV site,
// the one iteration record and the one cancellation error. Its Result is
// what the solver returns.
type solve struct {
	Result
	name string
	op   Operator
	ctx  context.Context
	hook Hook
}

// newSolve checks that op is square and returns the scaffold for its n
// unknowns. name is the solver's name in error text.
func newSolve(name string, op Operator, ctx context.Context, hook Hook) (*solve, int, error) {
	s := &solve{name: name, op: op, ctx: ctx, hook: hook}
	r, c := op.Dims()
	if r != c {
		return s, 0, fmt.Errorf("apps: operator is %dx%d, want square", r, c)
	}
	if r == 0 {
		return s, 0, fmt.Errorf("apps: empty operator")
	}
	return s, r, nil
}

// begin is the prologue of CG, PCG, BiCGSTAB and GMRES: a square operator,
// valid options and a right-hand side of matching length. It returns
// ||b||; when that is 0 the solve is over, x = 0 has converged and s.Result
// says so.
func begin(name string, op Operator, b []float64, opt SolveOptions, hook Hook) (*solve, float64, error) {
	s, n, err := newSolve(name, op, opt.Ctx, hook)
	if err == nil {
		err = opt.validate()
	}
	if err == nil && len(b) != n {
		err = fmt.Errorf("apps: rhs length %d for %d unknowns", len(b), n)
	}
	if err != nil {
		return s, 0, err
	}
	bnorm := vec.Nrm2(b)
	if bnorm == 0 {
		s.Converged, s.X = true, make([]float64, n)
	}
	return s, bnorm, nil
}

// apply is y = A*x, counted in SpMVs: the solvers' one SpMV site.
func (s *solve) apply(y, x []float64) {
	s.op.SpMV(y, x)
	s.SpMVs++
}

// record is iteration iter's progress value: it becomes the Residual, joins
// the trace and goes to the hook.
func (s *solve) record(iter int, progress float64) {
	s.Iterations = iter
	s.Residual = progress
	s.Progress = append(s.Progress, progress)
	if s.hook != nil {
		s.hook(iter, progress)
	}
}

// canceled returns the error that stops the solve before iteration iter
// once its context is done. A nil context never cancels.
func (s *solve) canceled(iter int) error {
	if s.ctx == nil {
		return nil
	}
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("apps: %s canceled at iteration %d: %w", s.name, iter, err)
	}
	return nil
}

// exit hands back the iterate x with the Result and err.
func (s *solve) exit(x []float64, err error) (Result, error) {
	s.X = x
	return s.Result, err
}
