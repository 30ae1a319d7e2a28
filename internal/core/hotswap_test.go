package core_test

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// TestHotSwapRaceHammer drives SpMV/solve-style traffic at one Adaptive from
// many goroutines while another goroutine hot-swaps predictor bundles with
// strictly increasing generations mid-flight and two more run lock-free
// blocked products. Under -race this is the retrainer's concurrency contract
// — no torn reads of the bundle pointer, and every reader observes a
// monotonically non-decreasing generation — and SpMM's: whatever the pipeline
// is doing to the handle meanwhile, every product is the CSR master's own.
func TestHotSwapRaceHammer(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 1500, 11)
	sa := core.NewAdaptive(m, 1e-8, preds, core.DefaultConfig(), false)
	rows, cols := sa.Dims()

	const (
		readers     = 6
		perReader   = 60
		generations = 40
	)
	var wg sync.WaitGroup
	var swapped atomic.Int64

	// Swapper: publish clone after clone, bumping the generation each time,
	// exactly as the retrain loop's SetPredictors walk does.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := int64(1); g <= generations; g++ {
			p := preds.Clone()
			p.Generation = g
			sa.SetPredictors(p)
			swapped.Store(g)
		}
	}()

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
		go func(w int) {
			defer wg.Done()
			x := make([]float64, cols)
			y := make([]float64, rows)
			for i := range x {
				x[i] = 1
			}
			r := 1.0
			last := int64(-1)
			for i := 0; i < perReader; i++ {
				sa.SpMV(y, x)
				r *= 0.995
				sa.RecordProgress(r)
				g := sa.ModelGeneration()
				if g < last {
					t.Errorf("worker %d saw generation go backwards: %d after %d", w, g, last)
					return
				}
				last = g
				_ = sa.Stats()
			}
		}(w)
	}
	wg.Wait()

	if got := sa.ModelGeneration(); got != generations {
		t.Errorf("final generation = %d, want %d (last published)", got, generations)
	}
	if swapped.Load() != generations {
		t.Fatalf("swapper finished %d generations, want %d", swapped.Load(), generations)
	}

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
			t.Fatalf("SpMV result torn at row %d after hot-swaps", i)
		}
	}
}

// TestHotSwapAsyncPipeline races bundle swaps against the background
// stage-2 worker: the async job must keep using the bundle it captured at
// launch (never a torn mix), and the trace's recorded generation must be
// one that was actually published. The bundle is the model-oracle one
// without its BSR and CSR5 models, as trainer.LoadBundle would hand it over:
// those formats are priced only, so with them the pipeline would decide a
// conversion that cannot be built and never adopt anything.
func TestHotSwapAsyncPipeline(t *testing.T) {
	preds := predictors(t).Clone()
	for _, f := range []sparse.Format{sparse.FmtBSR, sparse.FmtCSR5} {
		delete(preds.ConvTime, f)
		delete(preds.SpMVTime, f)
	}
	m := genCSR(t, matgen.FamBanded, 1500, 13)
	cfg := core.DefaultConfig()
	cfg.Async = true
	sa := core.NewAdaptive(m, 1e-8, preds, cfg, false)
	rows, cols := sa.Dims()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := int64(1); ; g++ {
			select {
			case <-stop:
				return
			default:
			}
			p := preds.Clone()
			p.Generation = g
			sa.SetPredictors(p)
		}
	}()

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
	close(stop)
	wg.Wait()

	st := sa.Stats()
	if !st.Stage1Ran {
		t.Fatal("pipeline never fired under swap pressure")
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
