package core_test

import (
	"math"
	"sync"
	"testing"
	"time"

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

// TestHotSwapAsyncPipeline runs stage 2 to a format swap under solver
// traffic: the K-th progress report runs the pipeline inline, it adopts a
// conversion and installs it, and the handle still multiplies exactly
// afterwards. The bundle is the model-oracle one without its BSR and CSR5
// models, as trainer.LoadBundle would hand it over: those formats are priced
// only, so with them the pipeline would decide a conversion that cannot be
// built and never adopt anything.
func TestHotSwapAsyncPipeline(t *testing.T) {
	preds := bundleWithout(predictors(t), sparse.FmtBSR, sparse.FmtCSR5)
	m := genCSR(t, matgen.FamBanded, 1500, 13)
	sa := core.NewAdaptive(m, 1e-8, preds, core.DefaultConfig(), false)
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

	st := sa.Stats()
	if !st.Stage1Ran {
		t.Fatal("pipeline never fired")
	}
	if !st.Converted {
		t.Fatalf("pipeline adopted no conversion (format %v): the test covers no swap", st.Format)
	}
	// Exact multiply still holds after the adoption.
	got := make([]float64, rows)
	want := make([]float64, rows)
	sa.SpMV(got, x)
	m.SpMV(want, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("adopted SpMV differs at row %d", i)
		}
	}
}

// TestConcurrentSpMVAcrossInlineSwap hammers an Adaptive with concurrent
// SpMV callers while the main goroutine reports progress: the K-th report
// runs the whole pipeline inside RecordProgress, under the handle mutex, and
// installs ELL. Under -race this is the torn-matrix check: every reader must
// compute the CSR reference's y before, across and after the swap.
func TestConcurrentSpMVAcrossInlineSwap(t *testing.T) {
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	sa := core.NewAdaptive(m, 1e-8, ellPreds(t, m), core.Config{K: 15, TH: 15, Margin: 0.1}, false)
	rows, cols := m.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := make([]float64, rows)
	m.SpMV(want, x)
	same := func(y []float64) bool {
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, rows)
			for {
				select {
				case <-stop:
					return
				default:
				}
				sa.SpMV(y, x)
				if !same(y) {
					select {
					case errc <- "torn or wrong SpMV result during swap":
					default:
					}
					return
				}
			}
		}()
	}
	r := 1.0
	for i := 0; i < 30; i++ {
		r *= 0.995
		sa.RecordProgress(r)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
	if st := sa.Stats(); !st.Stage2Ran || !st.Converted || st.Format != sparse.FmtELL {
		t.Fatalf("the pipeline did not install ELL: %+v", st)
	}
	y := make([]float64, rows)
	sa.SpMV(y, x)
	if !same(y) {
		t.Fatal("post-swap SpMV differs from the CSR reference")
	}
}
