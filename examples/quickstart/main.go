// Quickstart: generate a banded matrix, compare SpMV across storage
// formats, and run a CG solve through the adaptive overhead-conscious
// wrapper. This is the 60-second tour of the library's public API.
package main

import (
	"fmt"
	"log"
	"time"

	ocs "repro"
)

func main() {
	// A banded 20000x20000 matrix: the kind of structure where the DIA
	// format shines but only if the loop is long enough to amortize the
	// conversion.
	a, err := ocs.BandedMatrix(20000, 7, 1)
	if err != nil {
		log.Fatal(err)
	}
	rows, cols := a.Dims()
	fmt.Printf("matrix: %dx%d with %d nonzeros\n", rows, cols, a.NNZ())

	// Compare one SpMV per format.
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, rows)
	for _, f := range []ocs.Format{ocs.CSR, ocs.COO, ocs.DIA, ocs.ELL, ocs.HYB} {
		m, err := ocs.Convert(a, f)
		if err != nil {
			fmt.Printf("%-5v  not representable under default limits (%v)\n", f, err)
			continue
		}
		start := time.Now()
		for rep := 0; rep < 10; rep++ {
			m.SpMVParallel(y, x)
		}
		fmt.Printf("%-5v  %8.1fus per SpMV  (%d KiB)\n",
			f, float64(time.Since(start).Microseconds())/10, m.Bytes()/1024)
	}

	// Run CG through the adaptive wrapper. Training the predictors on the
	// fly takes a while; real deployments train once and load from disk
	// (ocs.SavePredictors / ocs.LoadPredictors).
	fmt.Println("\ntraining predictors on this machine (one-time cost)...")
	preds, err := ocs.TrainDefaultPredictors(42)
	if err != nil {
		log.Fatal(err)
	}

	spd, err := ocs.SPDMatrix(8000, 6, 2)
	if err != nil {
		log.Fatal(err)
	}
	n, _ := spd.Dims()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	opt := ocs.DefaultSolveOptions()
	tolAbs := opt.Tol * float64(n) // ||b|| of the all-ones vector is sqrt(n); be generous
	ad := ocs.NewAdaptive(spd, tolAbs, preds)
	start := time.Now()
	res, err := ocs.CG(ad, b, opt, func(it int, p float64) { ad.RecordProgress(p) })
	if err != nil {
		log.Fatal(err)
	}
	st := ad.Stats()
	fmt.Printf("\nadaptive CG: converged=%v in %d iterations (%v)\n",
		res.Converged, res.Iterations, time.Since(start).Round(time.Millisecond))
	fmt.Printf("selector: stage1=%v stage2=%v converted=%v format=%v\n",
		st.Stage1Ran, st.Stage2Ran, st.Converted, st.Format)
}
