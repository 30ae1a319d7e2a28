package arima

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitLinearTrend(t *testing.T) {
	// x_t = 3 + 2t: one difference makes it constant, so the intercept and
	// the lag are collinear; the ridge splits the weight and the forecast
	// must still continue the trend.
	series := make([]float64, 30)
	for i := range series {
		series[i] = 3 + 2*float64(i)
	}
	m, err := Fit(series)
	if err != nil {
		t.Fatal(err)
	}
	fc := m.Forecast(5)
	for i, v := range fc {
		want := 3 + 2*float64(30+i)
		if math.Abs(v-want) > 1e-6 {
			t.Errorf("forecast[%d] = %g, want %g", i, v, want)
		}
	}
}

func TestFitAR1(t *testing.T) {
	// z_t = 0.8 z_{t-1} + e integrated once: the fitted phi should be near
	// 0.8.
	rng := rand.New(rand.NewSource(1))
	series := make([]float64, 500)
	z := 0.0
	for i := 1; i < len(series); i++ {
		z = 0.8*z + rng.NormFloat64()*0.1
		series[i] = series[i-1] + z
	}
	m, err := Fit(series)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Phi-0.8) > 0.1 {
		t.Errorf("phi = %v, want ~0.8", m.Phi)
	}
}

func TestFitGeometricDecayInLogSpace(t *testing.T) {
	// Residual norms r_t = 10 * 0.7^t: log is linear, so ARIMA(1,1,0)
	// forecasts of the log series should continue the decay.
	logs := make([]float64, 20)
	for i := range logs {
		logs[i] = math.Log(10) + float64(i)*math.Log(0.7)
	}
	m, err := Fit(logs)
	if err != nil {
		t.Fatal(err)
	}
	fc := m.Forecast(10)
	for i, v := range fc {
		want := math.Log(10) + float64(20+i)*math.Log(0.7)
		if math.Abs(v-want) > 0.05 {
			t.Errorf("forecast[%d] = %g, want %g", i, v, want)
		}
	}
}

func TestFitValidation(t *testing.T) {
	short := []float64{1, 2, 3}
	if _, err := Fit(short); err == nil {
		t.Error("short series accepted")
	}
	bad := make([]float64, 50)
	bad[10] = math.NaN()
	if _, err := Fit(bad); err == nil {
		t.Error("NaN series accepted")
	}
	bad[10] = math.Inf(1)
	if _, err := Fit(bad); err == nil {
		t.Error("Inf series accepted")
	}
}

func TestForecastZeroHorizon(t *testing.T) {
	series := make([]float64, 30)
	for i := range series {
		series[i] = float64(i)
	}
	m, err := Fit(series)
	if err != nil {
		t.Fatal(err)
	}
	if fc := m.Forecast(0); fc != nil {
		t.Errorf("Forecast(0) = %v", fc)
	}
	if fc := m.Forecast(-3); fc != nil {
		t.Errorf("Forecast(-3) = %v", fc)
	}
}

func TestTripcountGeometricLoop(t *testing.T) {
	// A loop whose residual shrinks by 0.5x per iteration from 1.0 hits
	// 1e-6 after ceil(log(1e-6)/log(0.5)) = 20 iterations.
	tc := DefaultTripcount()
	progress := make([]float64, 15)
	r := 1.0
	for i := range progress {
		r *= 0.5
		progress[i] = r
	}
	total, err := tc.PredictTotal(progress, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if total < 18 || total > 23 {
		t.Errorf("predicted total %d, want ~20", total)
	}
}

func TestTripcountAlreadyConverged(t *testing.T) {
	tc := DefaultTripcount()
	progress := []float64{1, 0.1, 1e-9}
	total, err := tc.PredictTotal(progress, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Errorf("total = %d, want 3", total)
	}
}

func TestTripcountZeroResidual(t *testing.T) {
	tc := DefaultTripcount()
	total, err := tc.PredictTotal([]float64{1, 0.5, 0}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Errorf("total = %d, want 3", total)
	}
}

func TestTripcountStagnantLoop(t *testing.T) {
	tc := DefaultTripcount()
	progress := make([]float64, 15)
	for i := range progress {
		progress[i] = 1.0 // no progress at all
	}
	total, err := tc.PredictTotal(progress, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if total != 100000 {
		t.Errorf("stagnant loop predicted %d, want MaxIters 100000", total)
	}
}

func TestTripcountDivergingLoop(t *testing.T) {
	tc := DefaultTripcount()
	progress := make([]float64, 15)
	r := 1.0
	for i := range progress {
		r *= 1.3
		progress[i] = r
	}
	total, err := tc.PredictTotal(progress, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if total != 100000 {
		t.Errorf("diverging loop predicted %d, want MaxIters 100000", total)
	}
}

func TestTripcountShortPrefixFallback(t *testing.T) {
	// Too few points for ARIMA(1,1,0): the geometric fallback must engage.
	tc := DefaultTripcount()
	total, err := tc.PredictTotal([]float64{1, 0.5, 0.25}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if total < 18 || total > 23 {
		t.Errorf("fallback predicted %d, want ~20", total)
	}
}

func TestTripcountErrors(t *testing.T) {
	tc := DefaultTripcount()
	if _, err := tc.PredictTotal(nil, 1e-6); err == nil {
		t.Error("empty progress accepted")
	}
	if _, err := tc.PredictTotal([]float64{1}, 0); err == nil {
		t.Error("zero tolerance accepted")
	}
}

func TestSolveOLSExact(t *testing.T) {
	// y = 2 + 3x fitted exactly.
	X := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{2, 5, 8, 11}
	b, err := solveOLS(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b[0]-2) > 1e-9 || math.Abs(b[1]-3) > 1e-9 {
		t.Errorf("beta = %v, want [2 3]", b)
	}
}

func TestSolveOLSCollinearWithRidge(t *testing.T) {
	// Perfectly collinear columns: plain normal equations are singular, the
	// ridge must keep it solvable.
	X := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	y := []float64{1, 2, 3, 4}
	b, err := solveOLS(X, y, 1e-6)
	if err != nil {
		t.Fatalf("ridge solve failed: %v", err)
	}
	// Fitted values must reproduce y regardless of how weight splits.
	for i, row := range X {
		fit := row[0]*b[0] + row[1]*b[1]
		if math.Abs(fit-y[i]) > 1e-3 {
			t.Errorf("fit[%d] = %g, want %g", i, fit, y[i])
		}
	}
}

func TestSolveOLSShapeErrors(t *testing.T) {
	if _, err := solveOLS(nil, nil, 0); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := solveOLS([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Error("mismatched rows accepted")
	}
	if _, err := solveOLS([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestQuickTripcountWithinBounds(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}
	tc := DefaultTripcount()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(20) + 2
		rate := 0.3 + rng.Float64()*0.9 // 0.3..1.2: converging or diverging
		progress := make([]float64, k)
		r := 1.0 + rng.Float64()*10
		for i := range progress {
			r *= rate
			progress[i] = r
		}
		total, err := tc.PredictTotal(progress, 1e-8)
		if err != nil {
			return false
		}
		return total >= 1 && total <= 100000
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickForecastFinite(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(4))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(60)
		series := make([]float64, n)
		for i := 1; i < n; i++ {
			series[i] = 0.5*series[i-1] + rng.NormFloat64()
		}
		m, err := Fit(series)
		if err != nil {
			return false
		}
		for _, v := range m.Forecast(20) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestTripcountNearZeroSlopeIsCapped covers a log-slope so close to zero that
// the remaining-iteration quotient passes every int: both the forecast tail
// and the geometric fallback must answer MaxIters, never a negative count or
// the prefix length.
func TestTripcountNearZeroSlopeIsCapped(t *testing.T) {
	tc := DefaultTripcount()
	for _, c := range []struct {
		k    int
		path string
	}{
		{3, "geometric fallback"},
		{9, "geometric fallback"},
		{12, "forecast tail"},
		{15, "forecast tail"},
		{30, "forecast tail"},
	} {
		progress := make([]float64, c.k)
		for i := range progress {
			progress[i] = 1
		}
		progress[c.k-1] = math.Nextafter(1, 0)
		total, err := tc.PredictTotal(progress, 1e-300)
		if err != nil {
			t.Fatalf("k=%d: %v", c.k, err)
		}
		if total != 100000 {
			t.Errorf("k=%d (%s): predicted %d, want MaxIters 100000", c.k, c.path, total)
		}
	}
}
