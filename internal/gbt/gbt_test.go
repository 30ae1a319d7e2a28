package gbt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthDataset generates y = f(x) + noise for a piecewise nonlinear f that
// trees should capture easily.
func synthDataset(n, d int, noise float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()*4 - 2
		}
		y := 3.0
		if row[0] > 0 {
			y += 5
		}
		if d > 1 && row[1] > 0.5 {
			y -= 2 * row[1]
		}
		if d > 2 {
			y += row[2] * row[2]
		}
		ds.X[i] = row
		ds.Y[i] = y + rng.NormFloat64()*noise
	}
	return ds
}

func TestTrainReducesError(t *testing.T) {
	ds := synthDataset(500, 5, 0.05, 1)
	m, err := Train(ds, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pred := m.PredictBatch(ds.X)
	rmse := RMSE(pred, ds.Y)
	// Baseline: predicting the mean.
	var mean float64
	for _, y := range ds.Y {
		mean += y
	}
	mean /= float64(len(ds.Y))
	basePred := make([]float64, len(ds.Y))
	for i := range basePred {
		basePred[i] = mean
	}
	baseRMSE := RMSE(basePred, ds.Y)
	if rmse > baseRMSE/4 {
		t.Errorf("train RMSE %.4f vs mean baseline %.4f: insufficient fit", rmse, baseRMSE)
	}
}

func TestGeneralizesToTestSet(t *testing.T) {
	train := synthDataset(800, 5, 0.05, 2)
	test := synthDataset(200, 5, 0.05, 3)
	m, err := Train(train, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rmse := RMSE(m.PredictBatch(test.X), test.Y)
	if rmse > 0.8 {
		t.Errorf("test RMSE %.4f, want < 0.8", rmse)
	}
}

func TestConstantTarget(t *testing.T) {
	ds := &Dataset{}
	for i := 0; i < 50; i++ {
		ds.X = append(ds.X, []float64{float64(i)})
		ds.Y = append(ds.Y, 7.0)
	}
	m, err := Train(ds, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{25}); math.Abs(got-7) > 1e-9 {
		t.Errorf("constant prediction = %g, want 7", got)
	}
}

func TestSingleRowAndValidation(t *testing.T) {
	if _, err := Train(&Dataset{}, DefaultParams()); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := Train(&Dataset{X: [][]float64{{1}}, Y: []float64{1, 2}}, DefaultParams()); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Train(&Dataset{X: [][]float64{{1}, {1, 2}}, Y: []float64{1, 2}}, DefaultParams()); err == nil {
		t.Error("ragged rows accepted")
	}
	// Single row trains to its own value.
	m, err := Train(&Dataset{X: [][]float64{{3}}, Y: []float64{4}}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{3}); math.Abs(got-4) > 1e-9 {
		t.Errorf("single-row model predicts %g, want 4", got)
	}
}

func TestPredictDimensionPanics(t *testing.T) {
	m, err := Train(synthDataset(30, 3, 0, 4), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong feature count")
		}
	}()
	m.Predict([]float64{1, 2})
}

func TestFeatureImportanceFindsSignal(t *testing.T) {
	// Only feature 0 matters; importance must rank it first.
	rng := rand.New(rand.NewSource(5))
	ds := &Dataset{}
	for i := 0; i < 400; i++ {
		row := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y := 0.0
		if row[0] > 0.5 {
			y = 10
		}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, y)
	}
	m, err := Train(ds, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for f, v := range m.Importance[1:] {
		if v >= m.Importance[0] {
			t.Errorf("feature %d importance %g >= feature 0's %g", f+1, v, m.Importance[0])
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	ds := synthDataset(200, 4, 0.1, 10)
	m1, err := Train(ds, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(ds, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.X {
		if m1.Predict(ds.X[i]) != m2.Predict(ds.X[i]) {
			t.Fatal("the same data produced different models")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := synthDataset(150, 4, 0.1, 12)
	m, err := Train(ds, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.Save()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.X {
		if m.Predict(ds.X[i]) != m2.Predict(ds.X[i]) {
			t.Fatal("loaded model predicts differently")
		}
	}
	if _, err := Load([]byte("not json")); err == nil {
		t.Error("Load accepted garbage")
	}
}

// TestLoadRejectsMalformedTrees: a model that loads must not panic in
// Predict on a vector of its own width.
func TestLoadRejectsMalformedTrees(t *testing.T) {
	for name, blob := range map[string]string{
		"nil tree":        `{"num_features":2,"trees":[null]}`,
		"nil root":        `{"num_features":2,"trees":[{}]}`,
		"missing child":   `{"num_features":2,"trees":[{"root":{"feature":0,"split":1,"left":{"feature":-1}}}]}`,
		"deep nil child":  `{"num_features":2,"trees":[{"root":{"feature":0,"left":{"feature":-1},"right":{"feature":1,"right":{"feature":-1}}}}]}`,
		"feature = width": `{"num_features":2,"trees":[{"root":{"feature":2,"left":{"feature":-1},"right":{"feature":-1}}}]}`,
		"no width":        `{"trees":[{"root":{"feature":0,"left":{"feature":-1},"right":{"feature":-1}}}]}`,
	} {
		if _, err := Load([]byte(blob)); err == nil {
			t.Errorf("%s: Load accepted %s", name, blob)
		}
	}
}

func TestKFoldCV(t *testing.T) {
	ds := synthDataset(300, 4, 0.1, 13)
	cv, err := KFold(ds, 5, DefaultParams(), 1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Folds) != 5 {
		t.Fatalf("%d folds", len(cv.Folds))
	}
	if cv.MeanRMS <= 0 || math.IsNaN(cv.MeanRMS) {
		t.Errorf("MeanRMS = %v", cv.MeanRMS)
	}
	// CV error should be far below the target spread (~stddev 2.8).
	if cv.MeanRMS > 1.5 {
		t.Errorf("CV RMSE %.4f too high", cv.MeanRMS)
	}
	if _, err := KFold(ds, 1, DefaultParams(), 1, 1e-6); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := KFold(ds, 1000, DefaultParams(), 1, 1e-6); err == nil {
		t.Error("k > n accepted")
	}
}

func TestMetrics(t *testing.T) {
	if got := RMSE([]float64{1, 2}, []float64{1, 4}); math.Abs(got-math.Sqrt(2)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
	if !math.IsNaN(RMSE([]float64{1}, []float64{1, 2})) {
		t.Error("RMSE of mismatched lengths not NaN")
	}
	got := MeanRelativeError([]float64{1.1, 2.2}, []float64{1, 2}, 1e-9)
	if math.Abs(got-0.1) > 1e-9 {
		t.Errorf("MeanRelativeError = %v, want 0.1", got)
	}
	// Floor kicks in for zero targets.
	got = MeanRelativeError([]float64{0.5}, []float64{0}, 1.0)
	if got != 0.5 {
		t.Errorf("floored relative error = %v, want 0.5", got)
	}
}

func TestQuickModelIsFiniteAndBounded(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(16))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 20
		d := rng.Intn(5) + 1
		ds := &Dataset{X: make([][]float64, n), Y: make([]float64, n)}
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			row := make([]float64, d)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			ds.X[i] = row
			ds.Y[i] = rng.NormFloat64() * 10
			if ds.Y[i] < lo {
				lo = ds.Y[i]
			}
			if ds.Y[i] > hi {
				hi = ds.Y[i]
			}
		}
		m, err := Train(ds, Params{NumRounds: 20})
		if err != nil {
			return false
		}
		// Predictions on training points must be finite and within the
		// target range (trees cannot extrapolate beyond leaf means, and
		// shrinkage keeps them inside the convex hull of targets).
		for i := range ds.X {
			v := m.Predict(ds.X[i])
			if math.IsNaN(v) || math.IsInf(v, 0) || v < lo-1 || v > hi+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
