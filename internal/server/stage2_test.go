package server

import (
	"testing"
	"time"

	"repro/internal/timing"
)

// TestAsyncConfigRunsStage2Inline: Config.Async, which benchmark/ still
// sets, changes nothing. A solve that converts, with no conversion-cache
// hit, pays its whole stage 2 on the request path: hidden_seconds is 0 and
// paid_seconds is exactly feature + predict + convert. The fake clock steps
// by 0.25 s, a dyadic value, so every sum is exact in float64 and == is the
// honest comparison.
func TestAsyncConfigRunsStage2Inline(t *testing.T) {
	clk := timing.NewFakeClock()
	clk.SetAutoStep(250 * time.Millisecond)
	_, ts := newTestServer(t, Config{
		Async:    true,
		Preds:    constBundle(t, 0.05, 0.0),
		Selector: scriptedSelector(clk),
	})
	_, sol := solveJacobi(t, ts.URL, 1)
	st := sol.Selector
	if st.HiddenSeconds != 0 {
		t.Errorf("hidden_seconds = %g, want 0: nothing ran off the request path", st.HiddenSeconds)
	}
	if want := st.FeatureSeconds + st.PredictSeconds + st.ConvertSeconds; st.PaidSeconds != want {
		t.Errorf("paid_seconds = %g, want feature %g + predict %g + convert %g = %g",
			st.PaidSeconds, st.FeatureSeconds, st.PredictSeconds, st.ConvertSeconds, want)
	}
	if !st.Stage2Ran || !st.Converted || st.Format != "ELL" || st.ConvCacheHit || st.ConvertSeconds <= 0 {
		t.Fatalf("the solve did not convert to ELL on its own: %+v", st)
	}
}
