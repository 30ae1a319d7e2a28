package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// fetchTrace returns the wrapper's decision record or fails the test.
func fetchTrace(t *testing.T, ad *core.Adaptive) obs.DecisionTrace {
	t.Helper()
	tr, ok := ad.Trace()
	if !ok {
		t.Fatal("no decision record after the pipeline ran")
	}
	return tr
}

// TestTraceLedgerConverted replays the convert side of the decision gate
// under the fake clock and asserts the ledger to exact values: every SpMV
// measures exactly the 1ms auto-step, so baseline, realized, overhead, net
// and regret are all closed-form.
func TestTraceLedgerConverted(t *testing.T) {
	preds := predictors(t)
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	ad := core.NewAdaptive(m, 1e-8, preds, replayConfig(clk), false)
	driveLoop(ad, 20, 1, 0.995)

	st := ad.Stats()
	if !st.Converted {
		t.Fatalf("banded long loop did not convert: %+v", st)
	}
	tr := fetchTrace(t, ad)

	// The trace must reproduce core.Stats exactly — same clock, same regions.
	if tr.FeatureSeconds != st.FeatureSeconds || tr.PredictSeconds != st.PredictSeconds ||
		tr.ConvertSeconds != st.ConvertSeconds {
		t.Errorf("trace overheads (%g, %g, %g) != stats (%g, %g, %g)",
			tr.FeatureSeconds, tr.PredictSeconds, tr.ConvertSeconds,
			st.FeatureSeconds, st.PredictSeconds, st.ConvertSeconds)
	}
	if tr.PredictedTotal != st.PredictedTotal {
		t.Errorf("trace PredictedTotal = %d, stats say %d", tr.PredictedTotal, st.PredictedTotal)
	}
	if tr.Chosen != st.Format.String() || !tr.Converted {
		t.Errorf("trace chose %q converted=%v; stats %v converted=%v",
			tr.Chosen, tr.Converted, st.Format, st.Converted)
	}
	if tr.Iterations != 15 {
		t.Errorf("pipeline fired at iteration %d, want K=15", tr.Iterations)
	}
	if tr.ID != 0 || tr.Label != "" {
		t.Errorf("record carries ID %d label %q: both are its owner's to set", tr.ID, tr.Label)
	}

	// Both gates must appear with both sides: remaining>=TH and the
	// overhead-conscious gate, both passing in this scenario.
	if len(tr.Gates) < 2 {
		t.Fatalf("want >= 2 gate records, got %+v", tr.Gates)
	}
	g0 := tr.Gates[0]
	if g0.Name != "remaining>=TH" || !g0.Passed ||
		g0.LHS != float64(st.PredictedTotal-15) || g0.RHS != 15 {
		t.Errorf("gate 0 = %+v, want remaining>=TH with LHS %d, RHS 15", g0, st.PredictedTotal-15)
	}
	if g1 := tr.Gates[1]; g1.Name != "remaining>=gate*overhead" || !g1.Passed || g1.RHS <= 0 {
		t.Errorf("gate 1 = %+v", g1)
	}

	// Ledger, exactly. 15 pre-decision SpMV calls at 1ms → baseline 1ms;
	// 5 post-decision calls at 1ms → realized 1ms, speedup 1, saved 0;
	// overhead is the scripted 4ms (stage1 1 + feature 1 + decide 1 +
	// convert 1), all unrepaid.
	l := tr.Ledger
	if !approx(l.BaselineSpMVSeconds, 0.001) {
		t.Errorf("baseline = %g, want 0.001", l.BaselineSpMVSeconds)
	}
	if !approx(l.OverheadSeconds, 0.004) {
		t.Errorf("overhead = %g, want 0.004", l.OverheadSeconds)
	}
	if l.OverheadSeconds != st.FeatureSeconds+st.PredictSeconds+st.ConvertSeconds {
		t.Error("ledger overhead disagrees with core.Stats")
	}
	if l.PostSpMVCalls != 5 || !approx(l.PostSpMVSeconds, 0.005) {
		t.Errorf("post calls %d / %g s, want 5 / 0.005", l.PostSpMVCalls, l.PostSpMVSeconds)
	}
	if !approx(l.RealizedSpMVSeconds, 0.001) || !approx(l.RealizedSpeedup, 1) {
		t.Errorf("realized %g (%gx), want 0.001 (1x)", l.RealizedSpMVSeconds, l.RealizedSpeedup)
	}
	if !approx(l.SavedSeconds, 0) || !approx(l.NetSeconds, -0.004) || l.BrokeEven || !approx(l.RegretSeconds, 0.004) {
		t.Errorf("saved %g net %g brokeEven %v regret %g, want 0 / -0.004 / false / 0.004",
			l.SavedSeconds, l.NetSeconds, l.BrokeEven, l.RegretSeconds)
	}

	// Model-side fields must be self-consistent with the per-format map the
	// same trace carries.
	norm, ok := tr.PredictedSpMVNormByFormat[tr.Chosen]
	if !ok {
		t.Fatalf("chosen format %q missing from PredictedSpMVNormByFormat %v",
			tr.Chosen, tr.PredictedSpMVNormByFormat)
	}
	if l.PredictedSpMVSeconds != norm*l.BaselineSpMVSeconds {
		t.Errorf("predicted per-call %g != norm %g x baseline %g",
			l.PredictedSpMVSeconds, norm, l.BaselineSpMVSeconds)
	}
	if norm > 0 && norm < 1 && l.PredictedBreakEvenCalls <= 0 {
		t.Errorf("predicted speedup %g but break-even %d", 1/norm, l.PredictedBreakEvenCalls)
	}
}

// TestTraceLedgerStay replays the stay side of the conversion gate: an
// absurd margin forces the stage-2 argmin to keep CSR, and the ledger must
// show the overhead as pure (and exactly quantified) regret, with the
// realized per-call time equal to the baseline.
func TestTraceLedgerStay(t *testing.T) {
	preds := predictors(t)
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	cfg := replayConfig(clk)
	cfg.Margin = 0.9999 // a conversion would need ~free cost to win
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
	driveLoop(ad, 20, 1, 0.995)

	st := ad.Stats()
	if !st.Stage2Ran || st.Converted {
		t.Fatalf("want stage2-ran decide-stay, got %+v", st)
	}
	tr := fetchTrace(t, ad)
	if tr.Chosen != sparse.FmtCSR.String() || tr.Converted {
		t.Fatalf("trace chose %q converted=%v, want CSR stay", tr.Chosen, tr.Converted)
	}

	// No conversion region ran: overhead is stage1 1ms + feature 1ms +
	// decide 1ms = 3ms, all regret, with break-even pinned to the stayed
	// convention (0) and the predicted per-call time equal to the baseline.
	l := tr.Ledger
	if !approx(l.BaselineSpMVSeconds, 0.001) || !approx(l.PredictedSpMVSeconds, 0.001) || !approx(l.PredictedSpeedup, 1) {
		t.Errorf("baseline %g predicted %g (%gx), want 0.001 / 0.001 / 1x",
			l.BaselineSpMVSeconds, l.PredictedSpMVSeconds, l.PredictedSpeedup)
	}
	if l.PredictedBreakEvenCalls != 0 {
		t.Errorf("break-even %d, want 0 for a stay decision", l.PredictedBreakEvenCalls)
	}
	if !approx(l.OverheadSeconds, 0.003) {
		t.Errorf("overhead = %g, want 0.003", l.OverheadSeconds)
	}
	if l.PostSpMVCalls != 5 || !approx(l.RealizedSpMVSeconds, 0.001) {
		t.Errorf("post %d calls realized %g, want 5 / 0.001", l.PostSpMVCalls, l.RealizedSpMVSeconds)
	}
	if !approx(l.SavedSeconds, 0) || !approx(l.NetSeconds, -0.003) || l.BrokeEven || !approx(l.RegretSeconds, 0.003) {
		t.Errorf("saved %g net %g brokeEven %v regret %g, want 0 / -0.003 / false / 0.003",
			l.SavedSeconds, l.NetSeconds, l.BrokeEven, l.RegretSeconds)
	}

	// The margin inequality must be in the gate list, recorded as blocked.
	found := false
	for _, g := range tr.Gates {
		if g.Name == "stay_cost*(1-margin)>=best_alt" {
			found = true
			if g.Passed {
				t.Errorf("margin gate passed but the decision stayed: %+v", g)
			}
		}
	}
	if !found {
		t.Errorf("margin gate missing from %+v", tr.Gates)
	}
}

// TestTraceLedgerBreakEven scripts a post-decision SpMV cost drop (the fake
// clock's auto-step shrinks right after the pipeline) so the conversion's
// measured saving repays the overhead mid-run, flipping BrokeEven with
// closed-form numbers.
func TestTraceLedgerBreakEven(t *testing.T) {
	preds := predictors(t)
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	ad := core.NewAdaptive(m, 1e-8, preds, replayConfig(clk), false)
	// 15 iterations at 1ms trip the pipeline on the 15th progress report.
	driveLoop(ad, 15, 1, 0.995)
	if st := ad.Stats(); !st.Converted {
		t.Fatalf("pipeline did not convert: %+v", st)
	}
	// The "conversion payoff": post-decision SpMV calls measure 0.1ms.
	clk.SetAutoStep(100 * time.Microsecond)
	rows, cols := ad.Dims()
	x := make([]float64, cols)
	y := make([]float64, rows)
	for i := 0; i < 10; i++ {
		ad.SpMV(y, x)
	}

	l := fetchTrace(t, ad).Ledger
	// Saved = (1ms - 0.1ms) x 10 = 9ms against 4ms overhead: net +5ms.
	if l.PostSpMVCalls != 10 || !approx(l.RealizedSpMVSeconds, 0.0001) {
		t.Fatalf("post %d calls realized %g, want 10 / 0.0001", l.PostSpMVCalls, l.RealizedSpMVSeconds)
	}
	if !approx(l.RealizedSpeedup, 10) {
		t.Errorf("realized speedup %g, want 10", l.RealizedSpeedup)
	}
	if got, want := l.SavedSeconds, 0.009; !approx(got, want) {
		t.Errorf("saved %g, want %g", got, want)
	}
	if got, want := l.NetSeconds, 0.005; !approx(got, want) {
		t.Errorf("net %g, want %g", got, want)
	}
	if !l.BrokeEven || l.RegretSeconds != 0 {
		t.Errorf("brokeEven %v regret %g, want true / 0", l.BrokeEven, l.RegretSeconds)
	}
}

// approx tolerates only float summation rounding (the ledger averages sums
// of scripted 1ms steps), not measurement noise — there is none under the
// fake clock.
func approx(got, want float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}

// TestTraceEarlyReturnPaths asserts that every pipeline outcome — stage-1
// failure modes aside — leaves a retrievable record: the "predicted too
// short" return must still record the failed TH gate, and a sub-K loop
// must leave no record at all.
func TestTraceEarlyReturnPaths(t *testing.T) {
	preds := predictors(t)

	t.Run("below-K-no-trace", func(t *testing.T) {
		clk := timing.NewFakeClock()
		clk.SetAutoStep(time.Millisecond)
		m := genCSR(t, matgen.FamBanded, 4000, 7)
		ad := core.NewAdaptive(m, 1e-8, preds, replayConfig(clk), false)
		driveLoop(ad, 10, 1, 0.1)
		if tr, ok := ad.Trace(); ok {
			t.Errorf("record %+v exists but the pipeline never ran", tr)
		}
	})

	t.Run("th-gate-blocks", func(t *testing.T) {
		clk := timing.NewFakeClock()
		clk.SetAutoStep(time.Millisecond)
		m := genCSR(t, matgen.FamBanded, 4000, 7)
		ad := core.NewAdaptive(m, 1e-8, preds, replayConfig(clk), false)
		driveLoop(ad, 16, 1, 0.1) // fast convergence: few remaining iterations
		st := ad.Stats()
		if !st.Stage1Ran || st.Stage2Ran {
			t.Fatalf("want stage-1-only run, got %+v", st)
		}
		tr := fetchTrace(t, ad)
		if tr.Stage2Ran || tr.Chosen != sparse.FmtCSR.String() {
			t.Errorf("trace = %+v, want un-run stage 2 staying CSR", tr)
		}
		if len(tr.Gates) != 1 || tr.Gates[0].Passed {
			t.Errorf("want exactly one failed TH gate, got %+v", tr.Gates)
		}
		if l := tr.Ledger; l.PostSpMVCalls != 0 || l.OverheadSeconds != 0 {
			t.Errorf("stage-1-only ledger should be empty, got %+v", l)
		}
	})
}

// TestTraceStatsSpMVCalls checks the wrapper's total SpMV counter counts
// every call, before and after the decision, timed or not.
func TestTraceStatsSpMVCalls(t *testing.T) {
	preds := predictors(t)
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	// Post-decision calls are timed for the ledger and must count too.
	ad := core.NewAdaptive(m, 1e-8, preds, replayConfig(clk), false)
	driveLoop(ad, 20, 2, 0.995)
	if got := ad.Stats().SpMVCalls; got != 40 {
		t.Errorf("SpMVCalls = %d, want 40", got)
	}
}
