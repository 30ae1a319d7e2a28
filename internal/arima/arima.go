// Package arima fits the ARIMA(1,1,0) model with an intercept by ordinary
// least squares on the first differences. The paper's stage-1
// "lazy-and-light" predictor runs that model over a loop's progress
// indicators to forecast the loop tripcount; see the Tripcount type in
// tripcount.go.
package arima

import (
	"fmt"
	"math"
)

// Model is a fitted ARIMA(1,1,0) model: the first differences
// z_t = x_t − x_{t−1} follow z_t = Intercept + Phi·z_{t−1} + e_t. It keeps
// the series' final value and final difference, all Forecast needs to
// continue the series on its original scale.
type Model struct {
	Phi       float64
	Intercept float64

	last  float64 // final value of the series
	lastZ float64 // final first difference
}

// minDiffs is the fewest first differences Fit accepts.
const minDiffs = 9

// Fit estimates an ARIMA(1,1,0) model from the series, which needs at least
// minDiffs+1 observations.
func Fit(series []float64) (*Model, error) {
	for _, v := range series {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("arima: series contains NaN/Inf")
		}
	}
	if len(series)-1 < minDiffs {
		return nil, fmt.Errorf("arima: %d observations, need >= %d", len(series), minDiffs+1)
	}
	z := make([]float64, len(series)-1)
	for i := range z {
		z[i] = series[i+1] - series[i]
	}
	// Regress z_t on an intercept and z_{t-1}.
	X := make([][]float64, len(z)-1)
	for t := 1; t < len(z); t++ {
		X[t-1] = []float64{1, z[t-1]}
	}
	beta, err := solveOLS(X, z[1:], 1e-8)
	if err != nil {
		return nil, err
	}
	return &Model{Phi: beta[1], Intercept: beta[0], last: series[len(series)-1], lastZ: z[len(z)-1]}, nil
}

// Forecast predicts the next h values of the original series: each step
// forecasts the next difference (future innovations are zero) and adds it to
// the running level.
func (m *Model) Forecast(h int) []float64 {
	if h <= 0 {
		return nil
	}
	out := make([]float64, h)
	z, level := m.lastZ, m.last
	for i := range out {
		z = m.Intercept + m.Phi*z
		level += z
		out[i] = level
	}
	return out
}

// solveOLS solves min ||X b - y||^2 via ridge-stabilized normal equations
// with Gaussian elimination and partial pivoting. ridge is added to the
// diagonal to keep collinear designs solvable.
func solveOLS(X [][]float64, y []float64, ridge float64) ([]float64, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("arima: OLS shape mismatch (%d rows, %d targets)", n, len(y))
	}
	m := len(X[0])
	// A = X'X + ridge*I, b = X'y.
	A := make([][]float64, m)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		A[i] = make([]float64, m)
		A[i][i] = ridge
	}
	for r := 0; r < n; r++ {
		row := X[r]
		if len(row) != m {
			return nil, fmt.Errorf("arima: OLS row %d has %d columns, want %d", r, len(row), m)
		}
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				A[i][j] += row[i] * row[j]
			}
			b[i] += row[i] * y[r]
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < i; j++ {
			A[i][j] = A[j][i]
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[piv][col]) {
				piv = r
			}
		}
		if math.Abs(A[piv][col]) < 1e-300 {
			return nil, fmt.Errorf("arima: singular normal equations at column %d", col)
		}
		A[col], A[piv] = A[piv], A[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / A[col][col]
		for r := col + 1; r < m; r++ {
			f := A[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < m; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	out := make([]float64, m)
	for i := m - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < m; j++ {
			s -= A[i][j] * out[j]
		}
		out[i] = s / A[i][i]
	}
	return out, nil
}
