// Package timing provides the two cost oracles behind every experiment: a
// MeasuredOracle that wall-clock-times the real kernels and conversions, and
// a deterministic ModelOracle with an analytic cost model. Both answer the
// one question the selector's training pipeline asks of a matrix — what do
// its CSR SpMV, and every format's conversion and SpMV, cost — plus how long
// feature extraction takes, so experiments can swap honesty for
// reproducibility with one constructor change (see DESIGN.md's substitution
// table).
package timing

import (
	"sort"

	"repro/internal/features"
	"repro/internal/sparse"
)

// Oracle prices matrices in seconds.
type Oracle interface {
	// Costs prices one matrix: its CSR SpMV and, for every format the
	// oracle prices on it, the CSR->f conversion and one SpMV in f.
	Costs(a *sparse.CSR) Costs
	// FeatureTime is the time to extract the Table I feature set.
	FeatureTime(a *sparse.CSR) float64
}

// Costs is one matrix priced in seconds. Convert and SpMV share their keys,
// the non-CSR formats priced on the matrix; a format absent from Convert is
// unpriced (off the oracle's menu, or refused by the conversion limits).
type Costs struct {
	// CSR is one y = A*x on the CSR master: the normalization denominator.
	CSR     float64
	Convert map[sparse.Format]float64
	SpMV    map[sparse.Format]float64
}

func newCosts(csr float64) Costs {
	return Costs{CSR: csr, Convert: make(map[sparse.Format]float64), SpMV: make(map[sparse.Format]float64)}
}

// MeasureOptions controls wall-clock measurement.
type MeasureOptions struct {
	// Reps is the number of repetitions per measurement; the median is
	// reported. Minimum 1.
	Reps int
	// Clock supplies the timestamps measurements are computed from; nil
	// means the wall clock. Tests inject a *FakeClock to script exact
	// measured durations.
	Clock Clock
}

// DefaultMeasureOptions: 5 reps on the wall clock.
func DefaultMeasureOptions() MeasureOptions { return MeasureOptions{Reps: 5} }

// MeasuredOracle times the real parallel kernels, the configuration
// applications run, of the formats on sparse.MeasuredMenu under
// sparse.DefaultLimits; any other format is unpriced.
type MeasuredOracle struct {
	reps int
	clk  Clock
}

// NewMeasuredOracle builds a measuring oracle.
func NewMeasuredOracle(opt MeasureOptions) *MeasuredOracle {
	return &MeasuredOracle{reps: max(opt.Reps, 1), clk: orWall(opt.Clock)}
}

// Measure times one call of fn on the given clock, in seconds. It is the
// single timed region every oracle measurement goes through, so injecting a
// fake clock here makes the whole measurement pipeline deterministic.
func Measure(clk Clock, fn func()) float64 {
	clk = orWall(clk)
	start := clk.Now()
	fn()
	return Since(clk, start).Seconds()
}

// medianTime reports the median of reps timings of fn on clk, in seconds.
func medianTime(clk Clock, reps int, fn func()) float64 {
	times := make([]float64, reps)
	for i := range times {
		times[i] = Measure(clk, fn)
	}
	sort.Float64s(times)
	return times[reps/2]
}

// Costs implements Oracle. It times CSR's SpMV, then, in menu order, each
// other menu format the limits admit: the conversion Reps times, and the
// SpMV Reps times on the last conversion's result after one untimed warm-up.
// Each converted matrix is garbage once its SpMV is timed.
func (o *MeasuredOracle) Costs(a *sparse.CSR) Costs {
	rows, cols := a.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1.0 / float64(cols+1)
	}
	y := make([]float64, rows)
	spmv := func(m sparse.Matrix) float64 {
		m.SpMVParallel(y, x) // warm-up, outside the timed region
		return medianTime(o.clk, o.reps, func() { m.SpMVParallel(y, x) })
	}
	c := newCosts(spmv(a))
	for _, f := range sparse.MeasuredMenu {
		if f == sparse.FmtCSR || !sparse.CanConvert(a, f, sparse.DefaultLimits) {
			continue
		}
		var m sparse.Matrix
		var err error
		conv := medianTime(o.clk, o.reps, func() { m, err = sparse.ConvertFromCSR(a, f, sparse.DefaultLimits) })
		if err != nil {
			continue
		}
		c.Convert[f], c.SpMV[f] = conv, spmv(m)
	}
	return c
}

// FeatureTime implements Oracle.
func (o *MeasuredOracle) FeatureTime(a *sparse.CSR) float64 {
	return medianTime(o.clk, o.reps, func() { features.Extract(a) })
}
