package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// These tests replay the selector against a scripted clock: every duration
// the wrapper ever observes — its self-measured SpMV cost, the stage-1 and
// stage-2 overhead regions — is injected, so the overhead-conscious gate's
// arithmetic and the recorded decision sequence are exactly reproducible on
// any machine under any load. This is the harness the wall clock denies us:
// the gate compares *measured* quantities, so only a fake clock can pin
// which side of the threshold a scenario lands on.

// replayConfig is the default Config on a scripted clock: with an SpMV
// auto-step of s the overhead gate asks for 5 · (300 µs + 8 ns · nnz) / s
// remaining calls, the threshold ocsd and the library run.
func replayConfig(clk timing.Clock) core.Config {
	cfg := core.DefaultConfig()
	cfg.Clock = clk
	return cfg
}

// driveLoop simulates a solver loop: spmvPerIter timed SpMV calls, then one
// progress report per iteration with geometric decay.
func driveLoop(ad *core.Adaptive, iters, spmvPerIter int, decay float64) {
	rows, cols := ad.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, rows)
	r := 1.0
	for i := 0; i < iters; i++ {
		for s := 0; s < spmvPerIter; s++ {
			ad.SpMV(y, x)
		}
		r *= decay
		ad.RecordProgress(r)
	}
}

// TestReplayGateScriptedSpMVCost pins the overhead-conscious gate to both
// sides of its threshold using only the injected SpMV cost. The progress
// series is identical in both subtests — ~3700 predicted iterations — so
// the gate's verdict is decided purely by the scripted clock. The matrix
// has 31 906 nonzeros, so the default gate estimates extraction at
// 300 µs + 8 ns · 31 906 = 555 µs:
//
//	SpMV 100ns → overhead ≈ 5550 SpMV-equivalents, threshold ≈ 27 800 → blocked
//	SpMV 1ms   → overhead ≈ 0.56 SpMV-equivalents, threshold ≈ 2.8    → opens
func TestReplayGateScriptedSpMVCost(t *testing.T) {
	preds := predictors(t)
	cases := []struct {
		name     string
		spmvCost time.Duration
		wantRun  bool
	}{
		{"slow-feature-extraction-blocks", 100 * time.Nanosecond, false},
		{"cheap-relative-overhead-opens", time.Millisecond, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := timing.NewFakeClock()
			clk.SetAutoStep(tc.spmvCost)
			m := genCSR(t, matgen.FamBanded, 4000, 7)
			ad := core.NewAdaptive(m, 1e-8, preds, replayConfig(clk), false)
			driveLoop(ad, 20, 1, 0.995)
			st := ad.Stats()
			if !st.Stage1Ran {
				t.Fatal("stage 1 never ran")
			}
			if st.PredictedTotal < 1000 {
				t.Fatalf("predicted total %d; scenario needs a long loop", st.PredictedTotal)
			}
			if st.Stage2Ran != tc.wantRun {
				t.Errorf("Stage2Ran = %v, want %v (scripted SpMV cost %v)",
					st.Stage2Ran, tc.wantRun, tc.spmvCost)
			}
			if !tc.wantRun && st.Converted {
				t.Error("blocked gate still converted")
			}
		})
	}
}

// TestReplayOverheadAccountingExact asserts the overhead bookkeeping to the
// exact scripted values: with a 1ms auto-step, stage 1 and the decide region
// each measure 1ms (PredictSeconds = 2ms), feature extraction 1ms, and the
// conversion 1ms — PaidSeconds is exactly 4ms, not "> 0".
func TestReplayOverheadAccountingExact(t *testing.T) {
	preds := predictors(t)
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	ad := core.NewAdaptive(m, 1e-8, preds, replayConfig(clk), false)
	driveLoop(ad, 20, 1, 0.995)
	st := ad.Stats()
	if !st.Stage2Ran {
		t.Fatalf("stage 2 did not run: %+v", st)
	}
	if !st.Converted {
		t.Fatalf("banded long loop did not convert: %+v", st)
	}
	if st.PredictSeconds != 0.002 {
		t.Errorf("PredictSeconds = %g, want exactly 0.002", st.PredictSeconds)
	}
	if st.FeatureSeconds != 0.001 {
		t.Errorf("FeatureSeconds = %g, want exactly 0.001", st.FeatureSeconds)
	}
	if st.ConvertSeconds != 0.001 {
		t.Errorf("ConvertSeconds = %g, want exactly 0.001", st.ConvertSeconds)
	}
	if st.PaidSeconds != 0.004 {
		t.Errorf("PaidSeconds = %g, want exactly 0.004", st.PaidSeconds)
	}
}

// TestReplayGoldenTrace replays a scripted sequence of solver scenarios and
// asserts the selector's decision at every step against a golden trace.
// Each scenario fixes the progress decay (what stage 1 sees) and the
// scripted SpMV cost (what the gate sees); the resulting decide/convert/stay
// sequence must reproduce exactly.
func TestReplayGoldenTrace(t *testing.T) {
	preds := predictors(t)
	scenarios := []struct {
		name     string
		iters    int
		decay    float64
		spmvCost time.Duration
	}{
		{"short-loop", 10, 0.1, time.Millisecond},                 // < K: pipeline never fires
		{"nearly-done", 16, 0.1, time.Millisecond},                // stage 1 predicts < TH remaining
		{"long-loop-slow-spmv", 20, 0.995, 100 * time.Nanosecond}, // gate blocks stage 2
		{"long-loop", 20, 0.995, time.Millisecond},                // full pipeline, converts
		// A growing residual never crosses the tolerance, so stage 1
		// pessimistically answers MaxIters — the selector treats a divergent
		// loop as endless and converts just like the long loop.
		{"divergent", 20, 1.5, time.Millisecond},
	}
	var trace []string
	for _, sc := range scenarios {
		clk := timing.NewFakeClock()
		clk.SetAutoStep(sc.spmvCost)
		m := genCSR(t, matgen.FamBanded, 4000, 7)
		ad := core.NewAdaptive(m, 1e-8, preds, replayConfig(clk), false)
		driveLoop(ad, sc.iters, 1, sc.decay)
		st := ad.Stats()
		var ev string
		switch {
		case !st.Stage1Ran:
			ev = "idle"
		case !st.Stage2Ran:
			ev = "stay"
		case st.Converted:
			ev = "convert"
		default:
			ev = "decide-stay"
		}
		trace = append(trace, fmt.Sprintf("%s:%s", sc.name, ev))
	}
	golden := []string{
		"short-loop:idle",
		"nearly-done:stay",
		"long-loop-slow-spmv:stay",
		"long-loop:convert",
		"divergent:convert",
	}
	if len(trace) != len(golden) {
		t.Fatalf("trace length %d, want %d: %v", len(trace), len(golden), trace)
	}
	for i := range golden {
		if trace[i] != golden[i] {
			t.Errorf("trace[%d] = %q, want %q", i, trace[i], golden[i])
		}
	}
}

// TestReplayConvertedFormatStable: under the fake clock the entire pipeline
// is deterministic, so two identical replays must agree on everything —
// including the chosen format, whatever the trained bundle picked.
func TestReplayConvertedFormatStable(t *testing.T) {
	preds := predictors(t)
	run := func() (sparse.Format, core.Stats) {
		clk := timing.NewFakeClock()
		clk.SetAutoStep(time.Millisecond)
		m := genCSR(t, matgen.FamBanded, 4000, 7)
		ad := core.NewAdaptive(m, 1e-8, preds, replayConfig(clk), false)
		driveLoop(ad, 20, 1, 0.995)
		return ad.Format(), ad.Stats()
	}
	f1, st1 := run()
	f2, st2 := run()
	if f1 != f2 {
		t.Fatalf("replays chose different formats: %v vs %v", f1, f2)
	}
	if st1.PredictedTotal != st2.PredictedTotal {
		t.Errorf("replays predicted different totals: %d vs %d", st1.PredictedTotal, st2.PredictedTotal)
	}
	if st1.FeatureSeconds != st2.FeatureSeconds || st1.PredictSeconds != st2.PredictSeconds ||
		st1.ConvertSeconds != st2.ConvertSeconds {
		t.Errorf("replays measured different overheads: %+v vs %+v", st1, st2)
	}
}

// gateStep is the SpMV auto-step at which the default overhead gate asks
// for exactly calls remaining SpMV calls on a matrix of nnz nonzeros: the
// gate's threshold is 5 · (300 µs + 8 ns · nnz) / step.
func gateStep(nnz int, calls float64) time.Duration {
	return time.Duration(5 * (300e-6 + 8e-9*float64(nnz)) / calls * float64(time.Second))
}

// remainingAfterK replays the loop the two tests below share — geometric
// decay 0.664 towards 1e-8, about 45 iterations in all — with no gate in the
// way (no SpMV is timed, so the overhead gate stays out), and returns how
// many iterations stage 1 says are left at K = 15.
func remainingAfterK(t *testing.T, preds *core.Predictors, m *sparse.CSR) int {
	t.Helper()
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	ad := core.NewAdaptive(m, 1e-8, preds, replayConfig(clk), false)
	driveLoop(ad, 20, 0, 0.664)
	st := ad.Stats()
	left := st.PredictedTotal - core.K
	if !st.Stage2Ran || left < 25 || left > 35 {
		t.Fatalf("scenario needs about 30 iterations left and an open TH gate; stage 1 predicts %d in all, stage 2 ran: %v", st.PredictedTotal, st.Stage2Ran)
	}
	return left
}

// TestReplayDefaultGateChargesMeasuredExtraction is a short solve like the
// benchmark's cg-spd, scripted: the default gate's extraction estimate
// (300 µs + 8 ns per nonzero) comes to 7.3 SpMVs — the ratio of its
// measured 8 ns per nonzero to an SpMV of 12/11 ns per nonzero — and about
// 30 iterations are left. The gate asks for 5 x 7.3 = 37 and keeps stage 2
// out. The control scripts an SpMV 8/3 as slow, so that the same estimate
// is 2.75 SpMVs, what the 3e-9 per nonzero the default once claimed
// charged: that gate asks for 14 and lets the loop in to spend more than it
// can save.
func TestReplayDefaultGateChargesMeasuredExtraction(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	left := remainingAfterK(t, preds, m)
	run := func(extractionSpMVs float64) core.Stats {
		clk := timing.NewFakeClock()
		clk.SetAutoStep(gateStep(m.NNZ(), 5*extractionSpMVs))
		ad := core.NewAdaptive(m, 1e-8, preds, replayConfig(clk), false)
		driveLoop(ad, 20, 1, 0.664)
		return ad.Stats()
	}
	const measured = 8.0 * 11 / 12 // 7.3 SpMVs
	if st := run(measured); !st.Stage1Ran || st.Stage2Ran || st.Converted {
		t.Errorf("default gate, 7.3-SpMV extraction, %d iterations left: stage 2 ran (%+v)", left, st)
	}
	if st := run(measured * 3 / 8); !st.Stage2Ran {
		t.Errorf("control: at a 2.75-SpMV extraction the gate should open with %d iterations left", left)
	}
}

// TestReplayRemainingCountsSpMVCalls: a loop that issues two SpMVs per
// progress report (BiCGSTAB) has twice the calls left that its iteration
// forecast says, and it is calls a conversion is paid back in. The SpMV
// time is scripted so the gate asks for 1.5x the iterations left: the 1:1
// loop stays out, the 2:1 loop of the same length gets in and decides on 2x.
func TestReplayRemainingCountsSpMVCalls(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	left := remainingAfterK(t, preds, m)
	run := func(spmvPerIter int) *core.Adaptive {
		clk := timing.NewFakeClock()
		clk.SetAutoStep(gateStep(m.NNZ(), 1.5*float64(left)))
		ad := core.NewAdaptive(m, 1e-8, preds, replayConfig(clk), false)
		driveLoop(ad, 20, spmvPerIter, 0.664)
		return ad
	}
	if st := run(1).Stats(); st.Stage2Ran {
		t.Errorf("1:1 loop with %d iterations left passed a gate asking for %.0f calls", left, 1.5*float64(left))
	}
	ad := run(2)
	if !ad.Stats().Stage2Ran {
		t.Fatalf("2:1 loop with %d iterations (%d calls) left did not pass a gate asking for %.0f calls", left, 2*left, 1.5*float64(left))
	}
	if got := fetchTrace(t, ad).PredictedCostByFormat["CSR"]; got != float64(2*left) {
		t.Errorf("decision's remaining calls (its stay cost) = %g, want %d = 2 x %d iterations left", got, 2*left, left)
	}
}
