package core_test

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/convcache"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// ellPreds scripts a cost table where ELL halves the per-call cost for a
// 20-SpMV conversion bill: any long loop converts to ELL.
func ellPreds(t *testing.T, m *sparse.CSR) *core.Predictors {
	t.Helper()
	fvec := features.Extract(m).Vector()
	preds := core.NewPredictors()
	preds.ConvTime[sparse.FmtELL] = constModel(t, fvec, 20)
	preds.SpMVTime[sparse.FmtELL] = constModel(t, fvec, 0.5)
	return preds
}

// TestStage2OverheadConservation drives the one stage-2 body through every
// outcome and asserts the ledger's conservation law exactly:
//
//	Paid + Hidden == Feature + Predict + Convert + credit,  Hidden == credit
//
// where credit is the publisher's conversion bill on a cache hit. The fake
// clock steps by 0.25 s — a dyadic value, so every sum below is exact in
// float64 and == is the honest comparison. It also checks the
// selector.convert span (present only when a conversion ran here) carries
// the same paid seconds.
func TestStage2OverheadConservation(t *testing.T) {
	m := genCSR(t, matgen.FamBanded, 4000, 11)
	preds := ellPreds(t, m)
	const step = 250 * time.Millisecond
	const bill = 0.5 // the publisher's scripted conversion seconds

	outcomes := []struct {
		name        string
		margin      float64 // 0 keeps replayConfig's
		cache       bool
		prepublish  bool
		wantConvert bool // a conversion region ran on this handle
		wantCredit  float64
	}{
		{name: "stay", margin: 0.9999},
		{name: "convert", wantConvert: true},
		{name: "cache-hit", cache: true, prepublish: true, wantCredit: bill},
		{name: "cache-miss-publish", cache: true, wantConvert: true},
	}
	for _, oc := range outcomes {
		t.Run("paid/"+oc.name, func(t *testing.T) {
			clk := timing.NewFakeClock()
			clk.SetAutoStep(step)
			var spans []obs.Span
			cfg := traceConfig(clk, obs.NewJournal(0))
			cfg.SpanSink = func(sp obs.Span) { spans = append(spans, sp) }
			if oc.margin > 0 {
				cfg.Margin = oc.margin
			}
			var cache *convcache.Cache
			if oc.cache {
				cache = convcache.New(0)
				cfg.ConvCache = cache
				cfg.CacheFingerprint = m.Fingerprint()
				cfg.CacheValues = m.ValueDigest()
				if oc.prepublish {
					publishELL(t, cache, m, bill)
				}
			}
			ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
			ad.SetSpanParent(obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()})
			driveLoop(ad, 15, 1, 0.995)
			st := ad.Stats()
			if !st.Stage2Ran {
				t.Fatalf("stage 2 never ran: %+v", st)
			}
			if got := st.ConvertSeconds > 0; got != oc.wantConvert {
				t.Fatalf("ConvertSeconds = %g, conversion ran = %v, want %v", st.ConvertSeconds, got, oc.wantConvert)
			}
			if st.ConvCacheHit != (oc.wantCredit > 0) {
				t.Fatalf("ConvCacheHit = %v with credit %g", st.ConvCacheHit, oc.wantCredit)
			}
			lhs := st.PaidSeconds + st.HiddenSeconds
			rhs := st.FeatureSeconds + st.PredictSeconds + st.ConvertSeconds + oc.wantCredit
			if lhs != rhs {
				t.Errorf("paid %g + hidden %g = %g, want feature %g + predict %g + convert %g + credit %g = %g",
					st.PaidSeconds, st.HiddenSeconds, lhs,
					st.FeatureSeconds, st.PredictSeconds, st.ConvertSeconds, oc.wantCredit, rhs)
			}
			if st.HiddenSeconds != oc.wantCredit {
				t.Errorf("HiddenSeconds = %g, want the credit %g alone", st.HiddenSeconds, oc.wantCredit)
			}
			if oc.cache && !oc.prepublish && !cache.Has(cacheKey(m, sparse.FmtELL)) {
				t.Error("miss did not publish its conversion")
			}

			var convert []obs.Span
			for _, sp := range spans {
				if sp.Name == "selector.convert" {
					convert = append(convert, sp)
				}
			}
			if !oc.wantConvert {
				if len(convert) != 0 {
					t.Errorf("selector.convert span without a conversion: %+v", convert)
				}
				return
			}
			if len(convert) != 1 {
				t.Fatalf("got %d selector.convert spans, want 1", len(convert))
			}
			sp := convert[0]
			if got, err := strconv.ParseFloat(sp.Attrs["paid_seconds"], 64); err != nil || got != st.PaidSeconds {
				t.Errorf("convert span paid_seconds = %q, want %g", sp.Attrs["paid_seconds"], st.PaidSeconds)
			}
			if sp.Seconds != st.ConvertSeconds {
				t.Errorf("convert span lasted %g, stats say %g", sp.Seconds, st.ConvertSeconds)
			}
		})
	}
}

// TestTraceMarginGateUsesDecisionStayCost: the journaled margin gate shows
// the two numbers the argmin compared — the decision's own stay cost shrunk
// by the margin against the cheapest alternative's cost — and a verdict that
// agrees with them.
func TestTraceMarginGateUsesDecisionStayCost(t *testing.T) {
	m := genCSR(t, matgen.FamBanded, 3000, 17)
	preds := ellPreds(t, m)

	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	journal := obs.NewJournal(0)
	cfg := traceConfig(clk, journal)
	ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
	driveLoop(ad, 15, 1, 0.995)
	st := ad.Stats()
	if !st.Stage2Ran {
		t.Fatalf("stage 2 never ran: %+v", st)
	}
	stay := float64(st.PredictedTotal - 15)
	if got := st.Decision.PredictedCost[sparse.FmtCSR]; got != stay {
		t.Fatalf("decision stay cost %g, want the remaining calls %g", got, stay)
	}
	tr := fetchTrace(t, ad, journal)
	for _, g := range tr.Gates {
		if g.Name != "stay_cost*(1-margin)>=best_alt" {
			continue
		}
		if want := stay * (1 - cfg.Margin); g.LHS != want {
			t.Errorf("margin gate LHS = %g, want stay cost x (1-margin) = %g", g.LHS, want)
		}
		if alt := st.Decision.PredictedCost[sparse.FmtELL]; g.RHS != alt {
			t.Errorf("margin gate RHS = %g, want ELL's cost %g", g.RHS, alt)
		}
		if g.Passed != (g.RHS < g.LHS) {
			t.Errorf("margin gate verdict %v contradicts its sides %g vs %g", g.Passed, g.LHS, g.RHS)
		}
		return
	}
	t.Errorf("margin gate missing from %+v", tr.Gates)
}
