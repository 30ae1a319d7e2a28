package core_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/convcache"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// constModel trains a gbt model that predicts the constant c for any input
// shaped like fvec. With a constant target the ensemble's base prediction is
// the mean and no tree learns a split, so Predict returns exactly c — which
// lets the tests below script the selector's cost table.
func constModel(t *testing.T, fvec []float64, c float64) *gbt.Model {
	t.Helper()
	ds := &gbt.Dataset{X: [][]float64{fvec, fvec}, Y: []float64{c, c}}
	m, err := gbt.Train(ds, gbt.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// cacheKey builds the conversion-cache key the wrapper itself would use.
func cacheKey(m *sparse.CSR, f sparse.Format) convcache.Key {
	return convcache.Key{Fingerprint: m.Fingerprint(), Values: m.ValueDigest(), Format: f}
}

// publishSELL converts m to SELL out-of-band and publishes it with a scripted
// conversion bill, playing the role of the first tenant.
func publishSELL(t *testing.T, cache *convcache.Cache, m *sparse.CSR, bill float64) sparse.Matrix {
	t.Helper()
	sell, err := sparse.ConvertFromCSR(m, sparse.FmtSELL, sparse.DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	cache.Publish(cacheKey(m, sparse.FmtSELL), convcache.Entry{
		M: sell, ConvertSeconds: bill, NNZ: sell.NNZ(),
	})
	return sell
}

// TestConvCacheHitFlipsStayIntoConvert is the golden-trace flip test: with a
// scripted cost table where SELL's conversion is ruinously expensive, the
// selector stays on CSR — unless an earlier tenant already published the
// converted SELL matrix, in which case T_convert drops to zero in the argmin
// and the very same workload converts. The cache changes the decision, not
// just its price. All overheads are exact under the 1ms fake clock.
func TestConvCacheHitFlipsStayIntoConvert(t *testing.T) {
	m := genCSR(t, matgen.FamBanded, 4000, 11)
	fvec := features.Extract(m).Vector()
	preds := core.NewPredictors()
	// SELL runs at half CSR speed per call but costs 10000 CSR-SpMVs to
	// build: with ~6600 predicted remaining iterations, 10000 + 0.5*r > r,
	// so a cache-blind selector must stay.
	preds.ConvTime[sparse.FmtSELL] = constModel(t, fvec, 10000)
	preds.SpMVTime[sparse.FmtSELL] = constModel(t, fvec, 0.5)

	run := func(cache *convcache.Cache) (core.Stats, obs.DecisionTrace) {
		clk := timing.NewFakeClock()
		clk.SetAutoStep(time.Millisecond)
		cfg := replayConfig(clk)
		if cache != nil {
			cfg.ConvCache = cache
			cfg.CacheFingerprint = m.Fingerprint()
			cfg.CacheValues = m.ValueDigest()
		}
		ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
		driveLoop(ad, 20, 1, 0.995)
		st := ad.Stats()
		if !st.Stage2Ran {
			t.Fatalf("stage 2 never ran: %+v", st)
		}
		return st, fetchTrace(t, ad)
	}

	// Cache-blind: stay on CSR.
	st, tr := run(nil)
	if st.Converted || st.Format != sparse.FmtCSR || st.ConvCacheHit {
		t.Fatalf("without a cache the scripted costs must keep CSR: %+v", st)
	}
	if tr.ConvCacheHit {
		t.Fatal("trace claims a cache hit without a cache")
	}

	// Same workload, same models, but a prior tenant published the SELL
	// conversion: the argmin sees T_convert = 0 and flips to convert.
	cache := convcache.New(0)
	publishSELL(t, cache, m, 0.123)
	st, tr = run(cache)
	if !st.Converted || st.Format != sparse.FmtSELL {
		t.Fatalf("cached conversion did not flip the decision: %+v", st)
	}
	if !st.ConvCacheHit || !tr.ConvCacheHit || !tr.Converted {
		t.Fatalf("hit not recorded: stats=%v trace=%v", st.ConvCacheHit, tr.ConvCacheHit)
	}
	// Zero conversion work on this handle; the publisher's bill is credited
	// as hidden time, never paid.
	if st.ConvertSeconds != 0 {
		t.Errorf("ConvertSeconds = %g, want exactly 0", st.ConvertSeconds)
	}
	if st.HiddenSeconds != 0.123 {
		t.Errorf("HiddenSeconds = %g, want the publisher's 0.123", st.HiddenSeconds)
	}
	// Golden overhead: stage-1 predict + features + decide + cache lookup,
	// one scripted millisecond each, and no convert region.
	if overhead := st.FeatureSeconds + st.PredictSeconds + st.ConvertSeconds; overhead != 0.004 {
		t.Errorf("overhead regions sum to %g, want exactly 0.004", overhead)
	}
	if st.PaidSeconds != 0.004 {
		t.Errorf("PaidSeconds = %g, want exactly 0.004", st.PaidSeconds)
	}
	if s := cache.Snapshot(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/0", s.Hits, s.Misses)
	}

	// The adopted matrix must answer SpMV identically to the CSR master.
	rows, cols := m.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1
	}
	got, want := make([]float64, rows), make([]float64, rows)
	cacheEntry, ok := cache.Lookup(cacheKey(m, sparse.FmtSELL))
	if !ok {
		t.Fatal("entry vanished after adoption")
	}
	cacheEntry.M.SpMV(got, x)
	m.SpMV(want, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("adopted matrix differs at row %d", i)
		}
	}
}

// TestConvCacheAdoptAndPublish runs two tenants of one matrix through the
// cache: the first misses, converts and publishes; the second, with the same
// identity, adopts the published entry without ever running a conversion,
// and its ledger credits the publisher's bill as hidden time and nothing
// else.
func TestConvCacheAdoptAndPublish(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	cache := convcache.New(0)

	newAd := func() *core.Adaptive {
		clk := timing.NewFakeClock()
		clk.SetAutoStep(time.Millisecond)
		cfg := replayConfig(clk)
		cfg.ConvCache = cache
		cfg.CacheFingerprint = m.Fingerprint()
		cfg.CacheValues = m.ValueDigest()
		return core.NewAdaptive(m, 1e-8, preds, cfg, false)
	}

	// Tenant 1: miss, convert, publish.
	ad1 := newAd()
	driveLoop(ad1, 15, 1, 0.995)
	st1 := ad1.Stats()
	if !st1.Converted || st1.Format == sparse.FmtCSR {
		t.Fatalf("tenant 1 did not convert: %+v", st1)
	}
	if st1.ConvCacheHit || st1.HiddenSeconds != 0 {
		t.Fatalf("tenant 1 cannot hit an empty cache: %+v", st1)
	}
	if !cache.Has(cacheKey(m, st1.Format)) {
		t.Fatalf("tenant 1 did not publish its %v conversion", st1.Format)
	}

	// Tenant 2: same structure and values, adopts tenant 1's conversion.
	ad2 := newAd()
	driveLoop(ad2, 15, 1, 0.995)
	st2 := ad2.Stats()
	if !st2.Converted || st2.Format != st1.Format {
		t.Fatalf("tenant 2 did not adopt: %+v", st2)
	}
	if !st2.ConvCacheHit {
		t.Fatal("tenant 2 converted from scratch instead of adopting")
	}
	if st2.ConvertSeconds != 0 {
		t.Errorf("tenant 2 ConvertSeconds = %g, want 0", st2.ConvertSeconds)
	}
	// Hidden is the publisher's conversion bill — tenant 1's single
	// scripted 1ms — and everything tenant 2 ran itself is paid.
	if st2.HiddenSeconds != st1.ConvertSeconds {
		t.Errorf("tenant 2 HiddenSeconds = %g, want the publisher's %g", st2.HiddenSeconds, st1.ConvertSeconds)
	}
	if overhead := st2.FeatureSeconds + st2.PredictSeconds + st2.ConvertSeconds; st2.PaidSeconds != overhead {
		t.Errorf("tenant 2 PaidSeconds = %g, want all of its overhead %g", st2.PaidSeconds, overhead)
	}
	if tr := fetchTrace(t, ad2); !tr.ConvCacheHit {
		t.Error("tenant 2 trace does not record the cache hit")
	}
	if s := cache.Snapshot(); s.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", s.Hits)
	}
}

// TestAdaptiveSpMMMatchesCSR: blocked products run on the CSR master
// whatever format SpMV has been converted to, so the wrapper's product is the
// master's own — the same bits — before the pipeline and after an adopted
// conversion.
func TestAdaptiveSpMMMatchesCSR(t *testing.T) {
	m := genCSR(t, matgen.FamBanded, 2000, 13)
	ad := core.NewAdaptive(m, 1e-8, sellPreds(t, m), core.DefaultConfig(), false)
	rows, cols := m.Dims()
	const k = 5
	x := make([]float64, cols*k)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := make([]float64, rows*k)
	m.SpMM(want, x, k)

	check := func(stage string) {
		got := make([]float64, rows*k)
		ad.SpMM(got, x, k)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: SpMM differs at %d: %g vs %g", stage, i, got[i], want[i])
			}
		}
	}
	check("pre-pipeline")
	driveLoop(ad, 20, 1, 0.995)
	if st := ad.Stats(); !st.Converted || st.Format != sparse.FmtSELL {
		t.Fatalf("pipeline did not convert to SELL: %+v", st)
	}
	check("post-conversion")
	if got := ad.Stats().SpMMCalls; got != 2 {
		t.Errorf("SpMMCalls = %d, want 2", got)
	}
}

// TestConvCacheChargesStoredSlots: a published conversion is charged the
// slots it stores, padding included, in the unit the cache's budget counts.
// A main diagonal plus ten corner diagonals holding 1–10 entries each stays
// inside DIAFill but pads to about eleven slots per nonzero, so the stage-2
// DIA conversion is charged len(DIA.Data), not its nonzeros; and under a
// budget its nonzeros fit but its slots do not, the cache refuses it.
func TestConvCacheChargesStoredSlots(t *testing.T) {
	const n = 4000
	var ri, ci []int32
	var v []float64
	for i := 0; i < n; i++ {
		ri, ci, v = append(ri, int32(i)), append(ci, int32(i)), append(v, 4)
	}
	for k := 1; k <= 10; k++ { // offset n-k holds k entries
		for i := 0; i < k; i++ {
			ri, ci, v = append(ri, int32(i)), append(ci, int32(n-k+i)), append(v, -1)
		}
	}
	m, err := sparse.CSRFromTriplets(n, n, ri, ci, v)
	if err != nil {
		t.Fatal(err)
	}
	fvec := features.Extract(m).Vector()
	preds := core.NewPredictors()
	preds.ConvTime[sparse.FmtDIA] = constModel(t, fvec, 20)
	preds.SpMVTime[sparse.FmtDIA] = constModel(t, fvec, 0.5)

	run := func(cache *convcache.Cache) core.Stats {
		clk := timing.NewFakeClock()
		clk.SetAutoStep(time.Millisecond)
		cfg := replayConfig(clk)
		cfg.ConvCache = cache
		cfg.CacheFingerprint = m.Fingerprint()
		cfg.CacheValues = m.ValueDigest()
		ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
		driveLoop(ad, 15, 1, 0.995)
		st := ad.Stats()
		if !st.Converted || st.Format != sparse.FmtDIA {
			t.Fatalf("the scripted bundle did not convert to DIA: %+v", st)
		}
		return st
	}

	cache := convcache.New(0)
	run(cache)
	e, ok := cache.Lookup(cacheKey(m, sparse.FmtDIA))
	if !ok {
		t.Fatal("the DIA conversion was not published")
	}
	slots := len(e.M.(*sparse.DIA).Data)
	if slots < 10*m.NNZ() {
		t.Fatalf("DIA stores %d slots for %d nonzeros: the matrix does not pad", slots, m.NNZ())
	}
	if e.NNZ != slots || cache.Snapshot().NNZ != int64(slots) {
		t.Errorf("entry charged %d, cache holds %d; want the %d stored slots (nnz %d)", e.NNZ, cache.Snapshot().NNZ, slots, m.NNZ())
	}

	small := convcache.New(int64(2 * m.NNZ()))
	run(small)
	if small.Has(cacheKey(m, sparse.FmtDIA)) || small.Snapshot().Entries != 0 {
		t.Errorf("a %d-slot DIA entry was kept under a %d-slot budget its %d nonzeros fit", slots, 2*m.NNZ(), m.NNZ())
	}
}
