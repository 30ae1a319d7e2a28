package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/trainer"
)

// AppKind identifies one of the paper's four applications.
type AppKind int

// The four applications of §V-D.
const (
	AppPageRank AppKind = iota
	AppBiCGSTAB
	AppCG
	AppGMRES
)

// AllApps lists the applications in the paper's Table VI order.
var AllApps = []AppKind{AppPageRank, AppBiCGSTAB, AppCG, AppGMRES}

var appNames = [...]string{
	AppPageRank: "PageRank",
	AppBiCGSTAB: "BiCGSTAB",
	AppCG:       "CG",
	AppGMRES:    "GMRES",
}

// String returns the app's display name.
func (a AppKind) String() string {
	if a < 0 || int(a) >= len(appNames) {
		return fmt.Sprintf("App(%d)", int(a))
	}
	return appNames[a]
}

// Trace is one application run on one matrix: the true iteration count,
// progress-indicator series and SpMV call counts from an actual solver
// execution, plus the oracle costs of the operand matrix (the matrix SpMV
// actually runs on — for PageRank that is the transition matrix, not the
// adjacency input).
type Trace struct {
	App        AppKind
	Name       string
	Operand    *sparse.CSR
	Sample     trainer.Sample
	Iterations int
	Progress   []float64
	// Calls[i] is the number of SpMV calls the solve had issued when it
	// reported Progress[i], the count the selector's wrapper sees; SpMVs is
	// the whole solve's (restarted GMRES checks its residual with one more
	// call after the last report).
	Calls []int
	SpMVs int
	Tol   float64 // absolute tolerance on the progress indicator
}

// countedOp counts the SpMV calls a solve issues.
type countedOp struct {
	apps.Operator
	calls int
}

func (c *countedOp) SpMV(y, x []float64) {
	c.Operator.SpMV(y, x)
	c.calls++
}

// appTolerance is the relative solver tolerance used across the app
// experiments. It is tighter than typical defaults so the solver loops run
// long enough to exercise the conversion trade-off, mirroring the paper's
// loop-tripcount ranges (BiCGSTAB up to 10000).
const appTolerance = 1e-10

// BuildTraces runs the application once per corpus entry (on the default
// CSR format, which does not affect iteration counts) and records
// everything the cost simulations need. Entries the app cannot use (solver
// breakdowns, non-convergence) are skipped, mirroring the paper's
// "only valid runs are considered".
func (c *Context) BuildTraces(app AppKind, entries []matgen.Entry) ([]Trace, error) {
	var traces []Trace
	for _, e := range entries {
		tr, err := c.buildTrace(app, e)
		if err != nil {
			continue
		}
		traces = append(traces, tr)
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("experiments: no valid %v runs in corpus of %d entries", app, len(entries))
	}
	return traces, nil
}

func (c *Context) buildTrace(app AppKind, e matgen.Entry) (Trace, error) {
	n, _ := e.Matrix.Dims()
	rng := rand.New(rand.NewSource(e.Spec.Seed ^ 0x5EED))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	opt := apps.DefaultSolveOptions()
	opt.Tol = appTolerance

	operand := e.Matrix
	var (
		dangling []bool
		res      apps.Result
		err      error
	)
	if app == AppPageRank {
		if operand, dangling, err = apps.BuildTransition(e.Matrix); err != nil {
			return Trace{}, err
		}
	}
	op := &countedOp{Operator: apps.Ser(operand)}
	var calls []int
	hook := func(int, float64) { calls = append(calls, op.calls) }
	tol := opt.Tol * nrm2(b)
	switch app {
	case AppPageRank:
		prOpt := apps.DefaultPageRankOptions()
		res, err = apps.PageRank(op, dangling, prOpt, hook)
		tol = prOpt.Tol
	case AppCG:
		res, err = apps.CG(op, b, opt, hook)
	case AppBiCGSTAB:
		res, err = apps.BiCGSTAB(op, b, opt, hook)
	case AppGMRES:
		res, err = apps.GMRES(op, b, opt, hook)
	default:
		return Trace{}, fmt.Errorf("experiments: unknown app %v", app)
	}
	if err != nil {
		return Trace{}, err
	}
	if !res.Converged || res.Iterations == 0 {
		return Trace{}, fmt.Errorf("experiments: %v did not converge", app)
	}
	sample, err := collectOne(e.Spec.Name, operand, c.Oracle)
	if err != nil {
		return Trace{}, err
	}
	return Trace{
		App:        app,
		Name:       e.Spec.Name,
		Operand:    operand,
		Sample:     sample,
		Iterations: res.Iterations,
		Progress:   res.Progress,
		Calls:      calls,
		SpMVs:      res.SpMVs,
		Tol:        tol,
	}, nil
}

func nrm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
