package core_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestSafeAdaptiveConcurrentHammer drives one Adaptive from many goroutines
// mixing SpMV, RecordProgress and stats reads. Run under -race this is the
// concurrency-contract test.
func TestSafeAdaptiveConcurrentHammer(t *testing.T) {
	m := genCSR(t, matgen.FamBanded, 1500, 11)
	sa := core.NewAdaptive(m, 1e-8, core.NewPredictors(), core.DefaultConfig(), false)
	rows, cols := sa.Dims()

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			x := make([]float64, cols)
			y := make([]float64, rows)
			for i := range x {
				x[i] = 1
			}
			r := 1.0
			for i := 0; i < perWorker; i++ {
				sa.SpMV(y, x)
				// Slow decay keeps the predicted remaining count high, so
				// the pipeline's stage-2 path is exercised under contention.
				r *= 0.995
				sa.RecordProgress(r)
				_ = sa.Stats()
				_ = sa.Format()
				_ = sa.OverheadSeconds()
			}
		}(w)
	}
	wg.Wait()

	st := sa.Stats()
	if st.Iterations != workers*perWorker {
		t.Errorf("recorded %d iterations, want %d", st.Iterations, workers*perWorker)
	}
	if !st.Stage1Ran {
		t.Error("stage 1 never ran despite crossing K")
	}
	// Empty (non-nil) predictors run stage 2 but can never choose a
	// conversion, so the format must still be CSR and SpMV must stay exact.
	if st.Converted || sa.Format() != sparse.FmtCSR {
		t.Errorf("empty predictors converted the matrix: %+v", st)
	}
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
			t.Fatalf("SpMV after the hammer differs at %d", i)
		}
	}
}

// TestSafeAdaptivePipelineOnce checks the selection pipeline runs exactly
// once even when the K-th progress report races with others.
func TestSafeAdaptivePipelineOnce(t *testing.T) {
	m := genCSR(t, matgen.FamBanded, 1000, 12)
	sa := core.NewAdaptive(m, 1e-8, core.NewPredictors(), core.DefaultConfig(), false)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				sa.RecordProgress(0.5)
			}
		}()
	}
	wg.Wait()
	st := sa.Stats()
	if !st.Stage1Ran {
		t.Fatal("pipeline never ran")
	}
	f1 := st.FeatureSeconds
	sa.RecordProgress(0.5)
	if sa.Stats().FeatureSeconds != f1 {
		t.Error("pipeline ran more than once")
	}
}

// TestAdaptiveLibraryShapeUnderHammer is the plain library use — apps.CG on
// an async Adaptive whose hook reports progress and does nothing else — while
// other goroutines multiply on and read the same handle. Nobody collects the
// background conversion: the job installs it between two of the solver's
// SpMV calls, and the solve must come out as it does on the CSR master.
func TestAdaptiveLibraryShapeUnderHammer(t *testing.T) {
	m := genCSR(t, matgen.FamStencil2D, 3600, 5)
	cfg := core.Config{K: 15, TH: 15, Margin: 0.1, Async: true}
	ad := core.NewAdaptive(m, 1e-12, ellPreds(t, m), cfg, false)
	rows, cols := ad.Dims()
	b := make([]float64, rows)
	for i := range b {
		b[i] = 1
	}
	opt := apps.DefaultSolveOptions()
	opt.Tol = 1e-10
	want, err := apps.CG(apps.Ser(m), b, opt, nil)
	if err != nil || !want.Converged {
		t.Fatalf("reference CG: converged=%v err=%v", want.Converged, err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, y := make([]float64, cols), make([]float64, rows)
			for {
				select {
				case <-stop:
					return
				default:
				}
				ad.SpMV(y, x)
				_, _ = ad.Format(), ad.Stats()
			}
		}()
	}
	got, err := apps.CG(ad, b, opt, func(_ int, p float64) { ad.RecordProgress(p) })
	close(stop)
	wg.Wait()
	if err != nil || !got.Converged {
		t.Fatalf("CG on the adaptive handle: converged=%v err=%v", got.Converged, err)
	}
	for i := range got.X {
		if math.Abs(got.X[i]-want.X[i]) > 1e-6*(1+math.Abs(want.X[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got.X[i], want.X[i])
		}
	}
	if !ad.WaitPending() {
		t.Fatal("stage 2 was never launched: the hammer did not exercise the install")
	}
	if st := ad.Stats(); !st.Async || !st.Converted || st.Format != sparse.FmtELL {
		t.Fatalf("the job did not install ELL: %+v", st)
	}
}
