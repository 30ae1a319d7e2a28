package core_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestSpMMExactUnderConcurrentTraffic drives SpMV/solve-style traffic at one
// Adaptive from many goroutines — SpMV, RecordProgress and Stats, so the
// pipeline fires and may change the format mid-flight — while two more run
// lock-free blocked products. Under -race this is SpMM's concurrency
// contract: whatever the pipeline is doing to the handle meanwhile, every
// product is the CSR master's own.
func TestSpMMExactUnderConcurrentTraffic(t *testing.T) {
	m := genCSR(t, matgen.FamBanded, 1500, 11)
	sa := core.NewAdaptive(m, 1e-8, predictors(t), core.DefaultConfig(), false)
	rows, cols := sa.Dims()

	const (
		readers   = 6
		perReader = 60
	)
	var wg sync.WaitGroup

	const k = 3
	xp, wantp := make([]float64, cols*k), make([]float64, rows*k)
	for i := range xp {
		xp[i] = float64(i%9) - 4
	}
	m.SpMM(wantp, xp, k)
	wg.Add(2)
	for w := 0; w < 2; w++ {
		go func() {
			defer wg.Done()
			yp := make([]float64, rows*k)
			for i := 0; i < perReader; i++ {
				sa.SpMM(yp, xp, k)
				for j := range yp {
					if yp[j] != wantp[j] {
						t.Errorf("blocked product differs from the master's at %d: %g vs %g", j, yp[j], wantp[j])
						return
					}
				}
			}
		}()
	}

	wg.Add(readers)
	for w := 0; w < readers; w++ {
		go func() {
			defer wg.Done()
			x := make([]float64, cols)
			y := make([]float64, rows)
			for i := range x {
				x[i] = 1
			}
			r := 1.0
			for i := 0; i < perReader; i++ {
				sa.SpMV(y, x)
				r *= 0.995
				sa.RecordProgress(r)
				_ = sa.Stats()
			}
		}()
	}
	wg.Wait()

	// The matrix still multiplies correctly whatever format the hammered
	// pipeline landed on.
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1
	}
	got := make([]float64, rows)
	want := make([]float64, rows)
	sa.SpMV(got, x)
	m.SpMV(want, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("SpMV result torn at row %d after the pipeline ran", i)
		}
	}
}

// TestHotSwapAsyncPipeline runs the background stage-2 worker to a format
// swap under solver traffic: the job adopts a conversion and installs it, and
// the handle still multiplies exactly afterwards. The bundle is the
// model-oracle one without its BSR and CSR5 models, as trainer.LoadBundle
// would hand it over: those formats are priced only, so with them the
// pipeline would decide a conversion that cannot be built and never adopt
// anything.
func TestHotSwapAsyncPipeline(t *testing.T) {
	preds := bundleWithout(predictors(t), sparse.FmtBSR, sparse.FmtCSR5)
	m := genCSR(t, matgen.FamBanded, 1500, 13)
	cfg := core.DefaultConfig()
	cfg.Async = true
	sa := core.NewAdaptive(m, 1e-8, preds, cfg, false)
	rows, cols := sa.Dims()

	x := make([]float64, cols)
	y := make([]float64, rows)
	for i := range x {
		x[i] = 1
	}
	r := 1.0
	for i := 0; i < 60; i++ {
		sa.SpMV(y, x)
		r *= 0.995
		sa.RecordProgress(r)
	}
	sa.WaitPending()

	st := sa.Stats()
	if !st.Stage1Ran {
		t.Fatal("pipeline never fired")
	}
	if !st.Converted {
		t.Fatalf("async pipeline adopted no conversion (format %v): the test covers no swap", st.Format)
	}
	// Exact multiply still holds after the async adoption.
	got := make([]float64, rows)
	want := make([]float64, rows)
	sa.SpMV(got, x)
	m.SpMV(want, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("async-adopted SpMV differs at row %d", i)
		}
	}
}
