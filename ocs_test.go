package ocs

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// façadePredictors trains a small bundle once via the model oracle (fast).
var façadePreds *Predictors

func facadePredictors(t *testing.T) *Predictors {
	t.Helper()
	if façadePreds != nil {
		return façadePreds
	}
	opt := experiments.DefaultOptions()
	opt.TrainCount = 48
	opt.EvalCount = 16
	opt.MinSize = 300
	opt.MaxSize = 2000
	opt.Params.NumRounds = 30
	c, err := experiments.NewContext(opt, timing.NewModelOracle())
	if err != nil {
		t.Fatal(err)
	}
	façadePreds = c.Preds
	return façadePreds
}

func TestGeneratorsAndConvert(t *testing.T) {
	a, err := BandedMatrix(2000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{CSR, DIA, SELL} {
		m, err := Convert(a, f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if m.Format() != f {
			t.Errorf("Convert produced %v, want %v", m.Format(), f)
		}
	}
	if _, err := Stencil2DMatrix(20); err != nil {
		t.Fatal(err)
	}
	if _, err := RandomMatrix(100, 80, 4, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := PowerLawMatrix(200, 6, 3); err != nil {
		t.Fatal(err)
	}
	spd, err := SPDMatrix(150, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, c := spd.Dims()
	if r != c {
		t.Errorf("SPDMatrix not square: %dx%d", r, c)
	}
}

func TestMatrixMarketRoundTripViaFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	a, err := RandomMatrix(50, 40, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrixMarket(path, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() {
		t.Errorf("round trip NNZ %d != %d", back.NNZ(), a.NNZ())
	}
	if _, err := ReadMatrixMarket(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Error("reading a missing file succeeded")
	}
}

func TestSaveLoadPredictors(t *testing.T) {
	preds := facadePredictors(t)
	dir := t.TempDir()
	if err := SavePredictors(dir, preds); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictors(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The model-oracle bundle prices formats this build cannot convert to,
	// which load drops: it keeps exactly the saved built formats.
	var want []Format
	for _, f := range preds.Formats() {
		if slices.Contains(sparse.Implemented, f) {
			want = append(want, f)
		}
	}
	if got := loaded.Formats(); !slices.Equal(got, want) || len(loaded.ConvTime) != len(want) {
		t.Errorf("loaded %v (%d conversion models), want the saved built formats %v", got, len(loaded.ConvTime), want)
	}
	// Same predictions after the round trip.
	for f, m := range loaded.SpMVTime {
		x := make([]float64, m.NumFeature)
		for i := range x {
			x[i] = float64(i)
		}
		if got, want := m.Predict(x), preds.SpMVTime[f].Predict(x); got != want {
			t.Errorf("%v: loaded model predicts %g, want %g", f, got, want)
		}
	}
	if _, err := LoadPredictors(t.TempDir()); err == nil {
		t.Error("loading from an empty directory succeeded")
	}
}

func TestAdaptiveEndToEndViaFacade(t *testing.T) {
	preds := facadePredictors(t)
	a, err := Stencil2DMatrix(50)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := a.Dims()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	opt := DefaultSolveOptions()
	opt.Tol = 1e-10
	bnorm := math.Sqrt(float64(n))
	ad := NewAdaptive(a, opt.Tol*bnorm, preds)
	res, err := CG(ad, b, opt, func(it int, p float64) { ad.RecordProgress(p) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("adaptive CG did not converge")
	}
	// Compare against the fixed-CSR run: identical solution.
	ref, err := CG(Par(a), b, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-ref.X[i]) > 1e-6 {
			t.Fatalf("solutions differ at %d: %g vs %g", i, res.X[i], ref.X[i])
		}
	}
	st := ad.Stats()
	if !st.Stage1Ran {
		t.Error("stage 1 never ran")
	}
}

func TestMeasureFormatCosts(t *testing.T) {
	a, err := BandedMatrix(3000, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	costs, err := MeasureFormatCosts(a)
	if err != nil {
		t.Fatal(err)
	}
	csr, ok := costs[CSR]
	if !ok || csr.SpMVNorm != 1 || csr.ConvertNorm != 0 {
		t.Errorf("CSR cost = %+v", csr)
	}
	dia, ok := costs[DIA]
	if !ok {
		t.Fatal("DIA missing for a banded matrix")
	}
	if dia.ConvertNorm <= 0 {
		t.Errorf("DIA conversion %g, want > 0", dia.ConvertNorm)
	}
}

func TestPageRankViaFacade(t *testing.T) {
	adj, err := PowerLawMatrix(2000, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, dangling, err := BuildTransition(adj)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PageRank(Par(p), dangling, DefaultPageRankOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("PageRank did not converge")
	}
	var mass float64
	for _, v := range res.X {
		mass += v
	}
	if math.Abs(mass-1) > 1e-6 {
		t.Errorf("rank mass %g", mass)
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}

func TestSavePredictorsWritesManifest(t *testing.T) {
	preds := facadePredictors(t)
	dir := t.TempDir()
	if err := SavePredictors(dir, preds); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Errorf("manifest missing: %v", err)
	}
}

func TestWriteMatrixMarketErrorPath(t *testing.T) {
	a, err := BandedMatrix(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrixMarket("/nonexistent-dir/x.mtx", a); err == nil {
		t.Error("write to impossible path succeeded")
	}
}
