// Package solversel implements the paper's stated future-work direction
// (§VII): "selection of the best linear solvers for a given matrix", built
// with the same explicit overhead-conscious machinery as the format
// selector — per-candidate regression models over matrix features
// predicting a normalized total cost, an argmin decision, and a validity
// notion (CG requires SPD the way DIA requires diagonals).
//
// Cost is denominated in SpMV-call equivalents: each solver's total cost is
// its iteration count times its SpMV calls per iteration, which makes costs
// comparable across solvers and across matrices without wall-clock noise.
package solversel

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/sparse"
)

// Solver identifies a candidate iterative method.
type Solver int

// The candidate solvers. CG is valid only for SPD systems; the others
// handle general diagonally dominant ones.
const (
	SolverCG Solver = iota
	SolverBiCGSTAB
	SolverGMRES
	SolverJacobi
	numSolvers
)

// AllSolvers lists the candidates. The slice is shared; do not mutate.
var AllSolvers = []Solver{SolverCG, SolverBiCGSTAB, SolverGMRES, SolverJacobi}

var solverNames = [...]string{
	SolverCG:       "CG",
	SolverBiCGSTAB: "BiCGSTAB",
	SolverGMRES:    "GMRES",
	SolverJacobi:   "Jacobi",
}

// String returns the solver's display name.
func (s Solver) String() string {
	if s < 0 || int(s) >= len(solverNames) {
		return fmt.Sprintf("Solver(%d)", int(s))
	}
	return solverNames[s]
}

// spmvPerIter is each solver's SpMV calls per iteration.
func (s Solver) spmvPerIter() float64 {
	if s == SolverBiCGSTAB {
		return 2
	}
	return 1
}

// Sample is one matrix's training record: features plus the measured total
// cost (in SpMV calls) of every solver that converged.
type Sample struct {
	Name     string
	Features []float64
	// Cost[s] is iterations x SpMV-per-iteration; absent if the solver
	// failed (breakdown or non-convergence within the cap).
	Cost map[Solver]float64
}

// RunOptions controls the solver executions behind Collect.
type RunOptions struct {
	Tol      float64
	MaxIters int
	Restart  int
	Seed     int64
}

// DefaultRunOptions matches the format-selection experiments' settings.
func DefaultRunOptions() RunOptions {
	return RunOptions{Tol: 1e-8, MaxIters: 20000, Restart: 30, Seed: 1}
}

// CollectOne runs every candidate solver on one system and records costs.
func CollectOne(name string, a *sparse.CSR, opt RunOptions) (Sample, error) {
	n, cols := a.Dims()
	if n != cols {
		return Sample{}, fmt.Errorf("solversel: %q is %dx%d, want square", name, n, cols)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	sopt := apps.SolveOptions{Tol: opt.Tol, MaxIters: opt.MaxIters, Restart: opt.Restart}
	s := Sample{
		Name:     name,
		Features: features.Extract(a).Vector(),
		Cost:     make(map[Solver]float64),
	}
	record := func(sv Solver, res apps.Result, err error) {
		if err != nil || !res.Converged || res.Iterations == 0 {
			return
		}
		s.Cost[sv] = float64(res.Iterations) * sv.spmvPerIter()
	}
	res, err := apps.CG(apps.Ser(a), b, sopt, nil)
	record(SolverCG, res, err)
	res, err = apps.BiCGSTAB(apps.Ser(a), b, sopt, nil)
	record(SolverBiCGSTAB, res, err)
	res, err = apps.GMRES(apps.Ser(a), b, sopt, nil)
	record(SolverGMRES, res, err)
	diag := a.Diag()
	jacobiOK := true
	for _, d := range diag {
		if d == 0 {
			jacobiOK = false
			break
		}
	}
	if jacobiOK {
		res, err = apps.Jacobi(apps.Ser(a), diag, b, 1.0, sopt, nil)
		record(SolverJacobi, res, err)
	}
	if len(s.Cost) == 0 {
		return Sample{}, fmt.Errorf("solversel: no solver converged on %q", name)
	}
	return s, nil
}

// Predictors is the trained bundle: one regression model per solver
// predicting log10 of the total cost (costs span orders of magnitude, so
// the log keeps the squared-loss fit balanced).
type Predictors struct {
	Models map[Solver]*gbt.Model
}

// Train fits per-solver cost models from the samples. Solvers with fewer
// than minSamples converged runs are skipped (never selected).
func Train(samples []Sample, p gbt.Params, minSamples int) (*Predictors, error) {
	if minSamples < 1 {
		minSamples = 1
	}
	out := &Predictors{Models: make(map[Solver]*gbt.Model)}
	for _, sv := range AllSolvers {
		ds := &gbt.Dataset{}
		for _, s := range samples {
			if c, ok := s.Cost[sv]; ok {
				ds.X = append(ds.X, s.Features)
				ds.Y = append(ds.Y, math.Log10(c))
			}
		}
		if len(ds.Y) < minSamples {
			continue
		}
		m, err := gbt.Train(ds, p)
		if err != nil {
			return nil, fmt.Errorf("solversel: training %v model: %w", sv, err)
		}
		out.Models[sv] = m
	}
	if len(out.Models) == 0 {
		return nil, fmt.Errorf("solversel: no solver had >= %d samples", minSamples)
	}
	return out, nil
}

// Decide predicts the cheapest solver for a matrix with the given features.
// valid restricts the candidates (e.g. drop CG for a non-SPD system); nil
// means all trained solvers.
func (p *Predictors) Decide(feat []float64, valid func(Solver) bool) (Solver, float64) {
	best := Solver(-1)
	bestCost := math.Inf(1)
	for _, sv := range AllSolvers {
		m, ok := p.Models[sv]
		if !ok {
			continue
		}
		if valid != nil && !valid(sv) {
			continue
		}
		if c := math.Pow(10, m.Predict(feat)); c < bestCost {
			bestCost = c
			best = sv
		}
	}
	return best, bestCost
}

// OracleBest returns the truly cheapest converged solver of a sample.
func OracleBest(s *Sample) (Solver, float64) {
	best := Solver(-1)
	bestCost := math.Inf(1)
	for _, sv := range AllSolvers {
		if c, ok := s.Cost[sv]; ok && c < bestCost {
			bestCost = c
			best = sv
		}
	}
	return best, bestCost
}

// Evaluation summarizes out-of-sample selection quality.
type Evaluation struct {
	// Runs is the number of evaluated systems.
	Runs int
	// Agreement is the fraction where the predicted solver is the oracle
	// best.
	Agreement float64
	// CostRatio is the geometric mean of (cost of chosen solver) / (cost
	// of oracle best); 1.0 is perfect.
	CostRatio float64
	// BaselineRatio is the same ratio for the fixed-default strategy of
	// always using BiCGSTAB (the general-purpose safe pick).
	BaselineRatio float64
	// Chosen counts how often each solver was selected.
	Chosen map[Solver]int
}

// Evaluate scores the predictors on held-out samples. The validity rule
// mirrors deployment: a solver is a candidate only if it converged for the
// sample (an invalid pick falls back to its own measured cost when present,
// otherwise it is charged the worst observed cost of that system).
func (p *Predictors) Evaluate(samples []Sample) Evaluation {
	ev := Evaluation{Chosen: make(map[Solver]int)}
	var agree int
	var logSum, baseLogSum float64
	for i := range samples {
		s := &samples[i]
		oracle, oracleCost := OracleBest(s)
		if oracle < 0 {
			continue
		}
		ev.Runs++
		chosen, _ := p.Decide(s.Features, func(sv Solver) bool {
			_, ok := s.Cost[sv]
			return ok
		})
		if chosen < 0 {
			chosen = oracle
		}
		ev.Chosen[chosen]++
		if chosen == oracle {
			agree++
		}
		logSum += math.Log(s.Cost[chosen] / oracleCost)

		baseCost, ok := s.Cost[SolverBiCGSTAB]
		if !ok {
			baseCost = worstCost(s)
		}
		baseLogSum += math.Log(baseCost / oracleCost)
	}
	if ev.Runs > 0 {
		ev.Agreement = float64(agree) / float64(ev.Runs)
		ev.CostRatio = math.Exp(logSum / float64(ev.Runs))
		ev.BaselineRatio = math.Exp(baseLogSum / float64(ev.Runs))
	}
	return ev
}

func worstCost(s *Sample) float64 {
	worst := 0.0
	for _, c := range s.Cost {
		if c > worst {
			worst = c
		}
	}
	return worst
}
