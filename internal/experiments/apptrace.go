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
	numApps
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

// SpMVPerIter is the number of SpMV calls per loop iteration.
func (a AppKind) SpMVPerIter() float64 {
	if a == AppBiCGSTAB {
		return 2
	}
	return 1
}

// Trace is one application run on one matrix: the true iteration count and
// progress-indicator series from an actual solver execution, plus the
// oracle costs of the operand matrix (the matrix SpMV actually runs on —
// for PageRank that is the transition matrix, not the adjacency input).
type Trace struct {
	App        AppKind
	Name       string
	Operand    *sparse.CSR
	Sample     trainer.Sample
	Iterations int
	Progress   []float64
	Tol        float64 // absolute tolerance on the progress indicator
	Converged  bool
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

	var (
		operand *sparse.CSR
		res     apps.Result
		tol     float64
		err     error
	)
	switch app {
	case AppPageRank:
		p, dangling, errT := apps.BuildTransition(e.Matrix)
		if errT != nil {
			return Trace{}, errT
		}
		operand = p
		prOpt := apps.DefaultPageRankOptions()
		res, err = apps.PageRank(apps.Ser(p), dangling, prOpt, nil)
		tol = prOpt.Tol
	case AppCG:
		operand = e.Matrix
		res, err = apps.CG(apps.Ser(operand), b, opt, nil)
		tol = opt.Tol * nrm2(b)
	case AppBiCGSTAB:
		operand = e.Matrix
		res, err = apps.BiCGSTAB(apps.Ser(operand), b, opt, nil)
		tol = opt.Tol * nrm2(b)
	case AppGMRES:
		operand = e.Matrix
		res, err = apps.GMRES(apps.Ser(operand), b, opt, nil)
		tol = opt.Tol * nrm2(b)
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
		Tol:        tol,
		Converged:  res.Converged,
	}, nil
}

func nrm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
