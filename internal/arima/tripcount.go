package arima

import (
	"fmt"
	"math"
)

// Tripcount predicts the total iteration count of a convergence loop from
// the progress indicators (residual norms, rank deltas, ...) of its first k
// iterations — the paper's stage-1 "lazy-and-light" predictor. The model is
// fitted on the logarithm of the indicators (convergence loops shrink their
// residuals roughly geometrically, so the log series is near-linear and
// ARIMA(1,1,0) — geometric convergence with a drifting rate — extrapolates it
// well).
type Tripcount struct{}

// MaxIters caps the forecast, mirroring the iteration cap every real solver
// has (the paper's BiCGSTAB uses 100000).
const MaxIters = 100000

// DefaultTripcount returns the stage-1 predictor.
func DefaultTripcount() Tripcount { return Tripcount{} }

// PredictTotal estimates the loop's total number of iterations given the
// progress indicators of the first len(progress) iterations and the
// convergence tolerance the loop tests against. The returned count includes
// the observed iterations.
//
// Conservative fallbacks keep the gate usable when the series is
// uninformative: an already-converged series returns len(progress); a
// non-converging (flat or growing) series returns MaxIters.
func (Tripcount) PredictTotal(progress []float64, tol float64) (int, error) {
	k := len(progress)
	if k == 0 {
		return 0, fmt.Errorf("arima: no progress indicators")
	}
	if tol <= 0 {
		return 0, fmt.Errorf("arima: non-positive tolerance %g", tol)
	}
	// Already converged during the observed prefix.
	if progress[k-1] <= tol {
		return k, nil
	}
	logs := make([]float64, k)
	for i, v := range progress {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			// A non-positive indicator means the loop has converged beyond
			// float precision by iteration i+1.
			return i + 1, nil
		}
		logs[i] = math.Log(v)
	}
	logTol := math.Log(tol)

	model, err := Fit(logs)
	if err != nil {
		// Not enough history for the fit: fall back to a two-point
		// geometric extrapolation.
		return geometricFallback(logs, logTol), nil
	}
	// Forecast a bounded horizon explicitly; stage 1 must stay "light", and
	// an ARIMA forecast converges to a straight line quickly, so beyond the
	// cap the tail is continued analytically from the final slope.
	horizon := MaxIters - k
	if horizon <= 0 {
		return MaxIters, nil
	}
	if horizon > forecastCap {
		horizon = forecastCap
	}
	forecast := model.Forecast(horizon)
	for step, v := range forecast {
		if v <= logTol {
			return k + step + 1, nil
		}
	}
	if len(forecast) >= 2 {
		last := forecast[len(forecast)-1]
		slope := last - forecast[len(forecast)-2]
		if slope < 0 {
			return capped(k+len(forecast), (logTol-last)/slope), nil
		}
	}
	// The ARIMA forecast flattened out before crossing the tolerance (a
	// plateau in the observed prefix can do that). If the overall observed
	// trend still points down, trust the cruder geometric extrapolation
	// over the pessimistic MaxIters answer.
	if logs[k-1] < logs[0] {
		return geometricFallback(logs, logTol), nil
	}
	return MaxIters, nil
}

// forecastCap bounds the explicit ARIMA forecast length; the tail beyond it
// is extrapolated linearly.
const forecastCap = 512

// geometricFallback extrapolates the average log-slope of the observed
// prefix.
func geometricFallback(logs []float64, logTol float64) int {
	k := len(logs)
	if k < 2 {
		return MaxIters
	}
	slope := (logs[k-1] - logs[0]) / float64(k-1)
	if slope >= 0 {
		return MaxIters
	}
	return capped(k, (logTol-logs[k-1])/slope)
}

// capped returns done plus the ceiling of the remaining iterations, or
// MaxIters when that would pass it. remaining is compared before it becomes
// an int: a log-slope near zero makes it exceed every int, and converting
// such a float yields a negative count.
func capped(done int, remaining float64) int {
	if rest := math.Ceil(remaining); rest <= float64(MaxIters-done) {
		return done + int(rest)
	}
	return MaxIters
}
