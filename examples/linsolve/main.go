// Linear solvers on a 2D Poisson problem: CG, BiCGSTAB and GMRES on the
// five-point Laplacian, demonstrating the three iterative methods the paper
// evaluates on one PDE-flavored workload, plus the adaptive selector on the
// longest-running one.
package main

import (
	"fmt"
	"log"
	"time"

	ocs "repro"
	"repro/internal/vec"
)

func main() {
	// -Laplace(u) = f on a 160x160 grid: a 25600-unknown SPD system with
	// five diagonals (ideal DIA territory).
	const k = 160
	a, err := ocs.Stencil2DMatrix(k)
	if err != nil {
		log.Fatal(err)
	}
	n, _ := a.Dims()
	fmt.Printf("2D Poisson: %d unknowns, %d nonzeros\n", n, a.NNZ())

	// Right-hand side: a point source in the middle of the grid.
	b := make([]float64, n)
	b[(k/2)*k+k/2] = 1

	opt := ocs.DefaultSolveOptions()
	opt.Tol = 1e-10
	opt.MaxIters = 50000

	type solver struct {
		name string
		run  func(ocs.Operator) (ocs.Result, error)
	}
	solvers := []solver{
		{"CG", func(op ocs.Operator) (ocs.Result, error) { return ocs.CG(op, b, opt, nil) }},
		{"BiCGSTAB", func(op ocs.Operator) (ocs.Result, error) { return ocs.BiCGSTAB(op, b, opt, nil) }},
		{"GMRES(30)", func(op ocs.Operator) (ocs.Result, error) { return ocs.GMRES(op, b, opt, nil) }},
	}
	for _, s := range solvers {
		start := time.Now()
		res, err := s.run(ocs.Par(a))
		if err != nil {
			log.Fatal(s.name, ": ", err)
		}
		fmt.Printf("%-10s converged=%v iters=%5d residual=%.2e time=%v\n",
			s.name, res.Converged, res.Iterations, res.Residual,
			time.Since(start).Round(time.Millisecond))
	}

	// The same CG solve with the overhead-conscious selector: the stencil's
	// long convergence loop gives the conversion plenty of time to pay off.
	fmt.Println("\ntraining predictors (one-time)...")
	preds, err := ocs.TrainDefaultPredictors(42)
	if err != nil {
		log.Fatal(err)
	}
	bnorm := vec.Nrm2(b)
	ad := ocs.NewAdaptive(a, opt.Tol*bnorm, preds)
	start := time.Now()
	res, err := ocs.CG(ad, b, opt, func(it int, p float64) { ad.RecordProgress(p) })
	if err != nil {
		log.Fatal(err)
	}
	st := ad.Stats()
	fmt.Printf("adaptive CG converged=%v iters=%d time=%v\n",
		res.Converged, res.Iterations, time.Since(start).Round(time.Millisecond))
	fmt.Printf("selector: predictedTotal=%d converted=%v format=%v overhead=%.3gms\n",
		st.PredictedTotal, st.Converted, st.Format,
		1e3*(st.FeatureSeconds+st.PredictSeconds+st.ConvertSeconds))
}
