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

// replayConfig builds a Config whose stage-2 gate depends only on scripted
// quantities: the fixed predict cost dominates the per-nnz term, so with an
// SpMV auto-step of s the gate threshold is ~GateOverheadFactor ·
// PredictFixedSeconds / s remaining iterations.
func replayConfig(clk timing.Clock) core.Config {
	cfg := core.DefaultConfig()
	cfg.Clock = clk
	cfg.GateOverheadFactor = 10
	cfg.PredictFixedSeconds = 1e-3
	cfg.FeatureSecondsPerNNZ = 1e-15 // must be > 0 to arm the gate; negligible
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
// series is identical in both subtests — ~6600 predicted iterations — so
// the gate's verdict is decided purely by the scripted clock:
//
//	SpMV 1µs  → overhead ≈ 1000 SpMV-equivalents, threshold 10000 → blocked
//	SpMV 1ms  → overhead ≈ 1 SpMV-equivalent,   threshold ≈ 10   → opens
func TestReplayGateScriptedSpMVCost(t *testing.T) {
	preds := predictors(t)
	cases := []struct {
		name     string
		spmvCost time.Duration
		wantRun  bool
	}{
		{"slow-feature-extraction-blocks", time.Microsecond, false},
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
// conversion 1ms — OverheadSeconds is exactly 4ms, not "> 0".
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
		t.Fatalf("banded long loop did not convert: %+v", st.Decision)
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
	if got := ad.OverheadSeconds(); got != 0.004 {
		t.Errorf("OverheadSeconds = %g, want exactly 0.004", got)
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
		{"short-loop", 10, 0.1, time.Millisecond},            // < K: pipeline never fires
		{"nearly-done", 16, 0.1, time.Millisecond},           // stage 1 predicts < TH remaining
		{"long-loop-slow-spmv", 20, 0.995, time.Microsecond}, // gate blocks stage 2
		{"long-loop", 20, 0.995, time.Millisecond},           // full pipeline, converts
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

// remainingAfterK replays the loop the two tests below share — geometric
// decay 0.664 towards 1e-8, about 45 iterations in all — with no gate in the
// way, and returns how many iterations stage 1 says are left at K = 15.
func remainingAfterK(t *testing.T, preds *core.Predictors, m *sparse.CSR) int {
	t.Helper()
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	cfg := replayConfig(clk)
	cfg.GateOverheadFactor = 0
	ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
	driveLoop(ad, 20, 1, 0.664)
	st := ad.Stats()
	left := st.PredictedTotal - cfg.K
	if !st.Stage2Ran || left < 25 || left > 35 {
		t.Fatalf("scenario needs about 30 iterations left and an open TH gate; stage 1 predicts %d in all, stage 2 ran: %v", st.PredictedTotal, st.Stage2Ran)
	}
	return left
}

// TestReplayDefaultGateChargesMeasuredExtraction is a short solve like the
// benchmark's cg-spd, scripted: extraction costs 7.3 SpMVs (the default's
// measured 8 ns per nonzero against an SpMV of 12/11 ns per nonzero) and
// about 30 iterations are left. The default gate asks for 5 x 7.3 = 37 and
// keeps stage 2 out; at the 3e-9 the default once claimed, the same loop is
// charged 2.75 SpMVs and let in to spend more than it can save.
func TestReplayDefaultGateChargesMeasuredExtraction(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	left := remainingAfterK(t, preds, m)
	run := func(perNNZ float64) core.Stats {
		clk := timing.NewFakeClock()
		clk.SetAutoStep(time.Duration(m.NNZ()) * 12 / 11) // ns: one SpMV
		cfg := core.DefaultConfig()
		cfg.Clock = clk
		cfg.PredictFixedSeconds = 0 // the per-nonzero term alone
		if perNNZ != 0 {
			cfg.FeatureSecondsPerNNZ = perNNZ
		}
		ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
		driveLoop(ad, 20, 1, 0.664)
		return ad.Stats()
	}
	if st := run(0); !st.Stage1Ran || st.Stage2Ran || st.Converted {
		t.Errorf("default gate, 7.3-SpMV extraction, %d iterations left: stage 2 ran (%+v)", left, st)
	}
	if st := run(3e-9); !st.Stage2Ran {
		t.Errorf("control: at 3e-9 per nonzero the gate should open with %d iterations left", left)
	}
}

// TestReplayRemainingCountsSpMVCalls: a loop that issues two SpMVs per
// progress report (BiCGSTAB) has twice the calls left that its iteration
// forecast says, and it is calls a conversion is paid back in. The gate is
// scripted to ask for 1.5x the iterations left: the 1:1 loop stays out, the
// 2:1 loop of the same length gets in and decides on 2x.
func TestReplayRemainingCountsSpMVCalls(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	left := remainingAfterK(t, preds, m)
	run := func(spmvPerIter int) core.Stats {
		clk := timing.NewFakeClock()
		cfg := replayConfig(clk) // threshold = 10 * 1ms / SpMV cost
		clk.SetAutoStep(time.Duration(float64(10*time.Millisecond) / (1.5 * float64(left))))
		ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
		driveLoop(ad, 20, spmvPerIter, 0.664)
		return ad.Stats()
	}
	if st := run(1); st.Stage2Ran {
		t.Errorf("1:1 loop with %d iterations left passed a gate asking for %.0f calls", left, 1.5*float64(left))
	}
	st := run(2)
	if !st.Stage2Ran {
		t.Fatalf("2:1 loop with %d iterations (%d calls) left did not pass a gate asking for %.0f calls", left, 2*left, 1.5*float64(left))
	}
	if st.Decision.Remaining != float64(2*left) {
		t.Errorf("Decision.Remaining = %g, want %d = 2 x %d iterations left", st.Decision.Remaining, 2*left, left)
	}
}
