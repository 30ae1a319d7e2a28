package core_test

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/timing"
	"repro/internal/trainer"
)

// trainedPredictors trains a predictor bundle on a model-oracle corpus once
// per test binary.
var cachedPreds *core.Predictors

func predictors(t testing.TB) *core.Predictors {
	t.Helper()
	if cachedPreds != nil {
		return cachedPreds
	}
	entries, err := matgen.Corpus(matgen.CorpusConfig{
		Count: 64, Seed: 5, MinSize: 300, MaxSize: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := trainer.Collect(entries, timing.NewModelOracle())
	if err != nil {
		t.Fatal(err)
	}
	p := gbt.DefaultParams()
	p.NumRounds = 40
	preds, err := trainer.Train(samples, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	cachedPreds = preds
	return preds
}

// bundleWithout returns a new bundle holding p's models for every format
// but drop. The models themselves are shared, never copied.
func bundleWithout(p *core.Predictors, drop ...sparse.Format) *core.Predictors {
	b := core.NewPredictors()
	for f, m := range p.ConvTime {
		if !slices.Contains(drop, f) {
			b.ConvTime[f] = m
		}
	}
	for f, m := range p.SpMVTime {
		if !slices.Contains(drop, f) {
			b.SpMVTime[f] = m
		}
	}
	return b
}

func genCSR(t testing.TB, fam matgen.Family, size int, seed int64) *sparse.CSR {
	t.Helper()
	m, err := matgen.Generate(matgen.Spec{Name: "t", Family: fam, Size: size, Degree: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDecidePrefersCSRForShortLoops(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 2000, 1)
	fs := features.Extract(m)
	blocks := features.CountBlocks(m, sparse.DefaultLimits.BSRBlockSize)
	// With essentially zero remaining iterations, conversion can never pay:
	// every alternative's cost includes a positive conversion term.
	d := preds.Decide(fs, blocks, 1, sparse.DefaultLimits, 0.1)
	if d.Format != sparse.FmtCSR {
		t.Errorf("1 remaining iteration chose %v, want CSR", d.Format)
	}
}

func TestDecideConvertsForLongLoopsOnBanded(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 4000, 2)
	fs := features.Extract(m)
	blocks := features.CountBlocks(m, sparse.DefaultLimits.BSRBlockSize)
	d := preds.Decide(fs, blocks, 100000, sparse.DefaultLimits, 0.1)
	if d.Format == sparse.FmtCSR {
		t.Errorf("100k remaining iterations on a banded matrix stayed on CSR: %v", d.PredictedCost)
	}
}

func TestDecideRespectsValidity(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamRandom, 2000, 3)
	fs := features.Extract(m)
	blocks := features.CountBlocks(m, sparse.DefaultLimits.BSRBlockSize)
	d := preds.Decide(fs, blocks, 10000, sparse.DefaultLimits, 0.1)
	if _, ok := d.PredictedCost[sparse.FmtDIA]; ok {
		t.Error("DIA considered for a scatter matrix")
	}
	if d.Format == sparse.FmtDIA {
		t.Error("DIA chosen for a scatter matrix")
	}
}

func TestDecideCostMonotoneInRemaining(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamUniformRows, 3000, 4)
	fs := features.Extract(m)
	blocks := features.CountBlocks(m, sparse.DefaultLimits.BSRBlockSize)
	d1 := preds.Decide(fs, blocks, 10, sparse.DefaultLimits, 0.1)
	d2 := preds.Decide(fs, blocks, 1000, sparse.DefaultLimits, 0.1)
	for f, c1 := range d1.PredictedCost {
		if c2, ok := d2.PredictedCost[f]; ok && c2 < c1 {
			t.Errorf("%v: cost decreased with more iterations: %g -> %g", f, c1, c2)
		}
	}
}

func TestOracleDecide(t *testing.T) {
	conv := map[sparse.Format]float64{
		sparse.FmtELL: 50,
		sparse.FmtDIA: 200,
	}
	spmv := map[sparse.Format]float64{
		sparse.FmtCSR: 1,
		sparse.FmtELL: 0.8,
		sparse.FmtDIA: 0.4,
	}
	// 10 remaining: CSR costs 10; ELL 50+8=58; DIA 200+4. CSR wins.
	if got := core.OracleDecide(conv, spmv, 10); got != sparse.FmtCSR {
		t.Errorf("remaining=10: %v, want CSR", got)
	}
	// 300 remaining: CSR 300; ELL 50+240=290; DIA 200+120=320. ELL wins.
	if got := core.OracleDecide(conv, spmv, 300); got != sparse.FmtELL {
		t.Errorf("remaining=300: %v, want ELL", got)
	}
	// 1000 remaining: CSR 1000; ELL 850; DIA 600. DIA wins.
	if got := core.OracleDecide(conv, spmv, 1000); got != sparse.FmtDIA {
		t.Errorf("remaining=1000: %v, want DIA", got)
	}
}

func TestOverheadObliviousDecide(t *testing.T) {
	spmv := map[sparse.Format]float64{
		sparse.FmtCSR: 1,
		sparse.FmtELL: 0.8,
		sparse.FmtDIA: 0.4,
	}
	if got := core.OverheadObliviousDecide(spmv); got != sparse.FmtDIA {
		t.Errorf("OO picked %v, want DIA", got)
	}
	if got := core.OverheadObliviousDecide(map[sparse.Format]float64{sparse.FmtCSR: 1}); got != sparse.FmtCSR {
		t.Errorf("OO with only CSR picked %v", got)
	}
}

// TestPredictorsValidate: which formats a bundle covers is data, so a
// five-format bundle (the measured menu) is well-formed; what is malformed is
// a format holding one model of its pair, or a bundle holding nothing.
func TestPredictorsValidate(t *testing.T) {
	if err := core.NewPredictors().Validate(); err == nil {
		t.Error("empty bundle validated")
	}
	full := predictors(t)
	if err := full.Validate(); err != nil {
		t.Errorf("trained bundle: %v", err)
	}
	menu := []sparse.Format{sparse.FmtDIA, sparse.FmtELL, sparse.FmtHYB, sparse.FmtSELL, sparse.FmtJDS}
	five := core.NewPredictors()
	for _, f := range menu {
		if full.ConvTime[f] == nil || full.SpMVTime[f] == nil {
			t.Fatalf("test bundle has no %v models", f)
		}
		five.ConvTime[f], five.SpMVTime[f] = full.ConvTime[f], full.SpMVTime[f]
	}
	if err := five.Validate(); err != nil {
		t.Errorf("five-format bundle: %v", err)
	}
	if got := five.Formats(); !slices.Equal(got, menu) {
		t.Errorf("Formats() = %v, want %v", got, menu)
	}
	noSpMV := bundleWithout(five)
	delete(noSpMV.SpMVTime, sparse.FmtELL)
	if err := noSpMV.Validate(); err == nil || !strings.Contains(err.Error(), "ELL") {
		t.Errorf("conversion model without SpMV model: err = %v, want one naming ELL", err)
	}
	noConv := bundleWithout(five)
	delete(noConv.ConvTime, sparse.FmtJDS)
	if err := noConv.Validate(); err == nil || !strings.Contains(err.Error(), "JDS") {
		t.Errorf("SpMV model without conversion model: err = %v, want one naming JDS", err)
	}
}

func TestAdaptiveShortLoopNeverConverts(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 2000, 5)
	ad := core.NewAdaptive(m, 1e-8, preds, core.DefaultConfig(), false)
	// 10 iterations < K=15: pipeline never runs.
	r := 1.0
	for i := 0; i < 10; i++ {
		r *= 0.1
		ad.RecordProgress(r)
	}
	st := ad.Stats()
	if st.Stage1Ran || st.Stage2Ran || st.Converted {
		t.Errorf("short loop triggered pipeline: %+v", st)
	}
	if ad.Format() != sparse.FmtCSR {
		t.Errorf("format changed to %v", ad.Format())
	}
}

func TestAdaptiveGateBlocksNearlyDoneLoop(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 2000, 6)
	ad := core.NewAdaptive(m, 1e-8, preds, core.DefaultConfig(), false)
	// Fast geometric convergence: at iteration 15 the residual is 1e-15,
	// essentially converged; stage 1 must predict few remaining iterations
	// and skip stage 2.
	r := 1.0
	for i := 0; i < 16; i++ {
		r *= 0.1
		ad.RecordProgress(r)
	}
	st := ad.Stats()
	if !st.Stage1Ran {
		t.Fatal("stage 1 never ran")
	}
	if st.Stage2Ran {
		t.Errorf("stage 2 ran for a nearly-done loop (predicted total %d)", st.PredictedTotal)
	}
	if st.Converted {
		t.Error("conversion happened for a nearly-done loop")
	}
}

func TestAdaptiveLongLoopConvertsBanded(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 4000, 7)
	// Fake clock: the overhead assertions below are exact, not "> 0".
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	cfg := core.DefaultConfig()
	cfg.Clock = clk
	ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
	// Slow convergence: 0.995x per iteration needs ~6600 more iterations.
	r := 1.0
	for i := 0; i < 20; i++ {
		r *= 0.995
		ad.RecordProgress(r)
	}
	st := ad.Stats()
	if !st.Stage1Ran || !st.Stage2Ran {
		t.Fatalf("pipeline did not complete: %+v", st)
	}
	if st.PredictedTotal < 1000 {
		t.Errorf("predicted total %d, want >> 15", st.PredictedTotal)
	}
	if !st.Converted || st.Format == sparse.FmtCSR {
		t.Errorf("banded long loop did not convert: decision %+v", st.Decision)
	}
	// SpMV must still compute correctly after conversion.
	rows, cols := ad.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, rows)
	ad.SpMV(y, x)
	want := make([]float64, rows)
	m.SpMV(want, x)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("post-conversion SpMV differs at %d: %g vs %g", i, y[i], want[i])
		}
	}
	// Four timed regions (stage-1 predict, features, decide, convert) at
	// 1ms of scripted clock each.
	if got := ad.OverheadSeconds(); got != 0.004 {
		t.Errorf("OverheadSeconds = %g, want exactly 0.004", got)
	}
}

func TestAdaptivePipelineRunsOnce(t *testing.T) {
	preds := predictors(t)
	m := genCSR(t, matgen.FamBanded, 2000, 8)
	clk := timing.NewFakeClock()
	clk.SetAutoStep(time.Millisecond)
	cfg := core.DefaultConfig()
	cfg.Clock = clk
	ad := core.NewAdaptive(m, 1e-8, preds, cfg, false)
	r := 1.0
	for i := 0; i < 100; i++ {
		r *= 0.995
		ad.RecordProgress(r)
	}
	st := ad.Stats()
	if st.Iterations != 100 {
		t.Errorf("iterations %d", st.Iterations)
	}
	// Under the fake clock a single pipeline run charges exactly one 1ms
	// region to feature extraction; a re-run would double it.
	if st.FeatureSeconds != 0.001 {
		t.Errorf("FeatureSeconds = %g, want exactly 0.001", st.FeatureSeconds)
	}
	for i := 0; i < 50; i++ {
		ad.RecordProgress(r)
	}
	if ad.Stats().FeatureSeconds != 0.001 {
		t.Error("pipeline ran more than once")
	}
}

func TestAdaptiveNilPredictorsIsSafe(t *testing.T) {
	m := genCSR(t, matgen.FamBanded, 1000, 9)
	ad := core.NewAdaptive(m, 1e-8, nil, core.DefaultConfig(), true)
	r := 1.0
	for i := 0; i < 30; i++ {
		r *= 0.99
		ad.RecordProgress(r)
	}
	st := ad.Stats()
	if st.Stage2Ran || st.Converted {
		t.Errorf("nil predictors ran stage 2: %+v", st)
	}
}

func TestAdaptiveInsideRealSolver(t *testing.T) {
	// End-to-end: CG on an SPD stencil through the adaptive wrapper, with a
	// tight tolerance so the loop is long enough for conversion. The
	// solution must match the fixed-CSR run.
	preds := predictors(t)
	m, err := matgen.Stencil2D(60) // 3600 rows, long CG
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	n, _ := m.Dims()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	opt := apps.DefaultSolveOptions()
	opt.Tol = 1e-10

	ref, err := apps.CG(apps.Ser(m), b, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The CG progress indicator is absolute ||r||; the tolerance given to
	// the tripcount predictor must be on the same scale.
	tol := opt.Tol * vecNorm(b)
	ad2 := core.NewAdaptive(m, tol, preds, core.DefaultConfig(), false)
	res, err := apps.CG(ad2, b, opt, func(it int, p float64) { ad2.RecordProgress(p) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("adaptive CG did not converge")
	}
	if d := res.Iterations - ref.Iterations; d < -2 || d > 2 {
		t.Errorf("adaptive CG took %d iterations vs %d", res.Iterations, ref.Iterations)
	}
	st := ad2.Stats()
	if !st.Stage1Ran {
		t.Error("stage 1 never ran inside CG")
	}
	for i := range res.X {
		if math.Abs(res.X[i]-ref.X[i]) > 1e-6 {
			t.Fatalf("solutions differ at %d", i)
		}
	}
}

func vecNorm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := core.DefaultConfig()
	if cfg.K != 15 || cfg.TH != 15 {
		t.Errorf("K=%d TH=%d, paper uses 15/15", cfg.K, cfg.TH)
	}
}

func TestDecideCostsJDS(t *testing.T) {
	// JDS is universal (no fill limit), so every Decide must price it —
	// the "participates in selection" half of wiring a new format in.
	preds := predictors(t)
	m := genCSR(t, matgen.FamPowerLaw, 3000, 7)
	fs := features.Extract(m)
	blocks := features.CountBlocks(m, sparse.DefaultLimits.BSRBlockSize)
	d := preds.Decide(fs, blocks, 10000, sparse.DefaultLimits, 0.1)
	if _, ok := d.PredictedCost[sparse.FmtJDS]; !ok {
		t.Fatal("JDS missing from Decide's cost table")
	}
}

func TestJDSChoosableByOracleOnSkewedMidLoop(t *testing.T) {
	// With the model oracle's true costs, a skewed (power-law) matrix and a
	// mid-length loop should prefer JDS: it runs near CSR5 speed but costs
	// about a tenth of CSR5's conversion, so there is a remaining-iteration
	// band where the cheaper conversion wins the T_affected comparison.
	o := timing.NewModelOracle()
	o.Noise = 0
	m := genCSR(t, matgen.FamPowerLaw, 4000, 8)
	c := o.Costs(m)
	if c.CSR <= 0 {
		t.Fatal("no CSR baseline time")
	}
	conv := map[sparse.Format]float64{sparse.FmtCSR: 0}
	spmv := map[sparse.Format]float64{sparse.FmtCSR: 1}
	for f, ct := range c.Convert {
		spmv[f] = c.SpMV[f] / c.CSR
		conv[f] = ct / c.CSR
	}
	if _, ok := spmv[sparse.FmtJDS]; !ok {
		t.Fatal("oracle did not cost JDS")
	}
	chosen := false
	for _, remaining := range []float64{20, 50, 100, 200, 500, 1000, 2000} {
		if core.OracleDecide(conv, spmv, remaining) == sparse.FmtJDS {
			chosen = true
			break
		}
	}
	if !chosen {
		t.Errorf("JDS never optimal across the remaining-iteration sweep: spmv=%v conv=%v",
			spmv[sparse.FmtJDS], conv[sparse.FmtJDS])
	}
}
