// Package timing provides the two cost oracles behind every experiment: a
// MeasuredOracle that wall-clock-times the real kernels and conversions, and
// a deterministic ModelOracle with an analytic cost model. Both answer the
// same three questions the selector's training pipeline asks — how long is
// one SpMV in format f, how long is the CSR->f conversion, and how long is
// feature extraction — so experiments can swap honesty for reproducibility
// with one constructor change (see DESIGN.md's substitution table).
package timing

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/features"
	"repro/internal/sparse"
)

// Oracle answers per-matrix cost questions in seconds. Implementations must
// be safe for concurrent use. ok is false when the matrix cannot be
// represented in the format under the oracle's limits.
type Oracle interface {
	// SpMVTime is the time of one y = A*x in format f.
	SpMVTime(a *sparse.CSR, f sparse.Format) (seconds float64, ok bool)
	// ConvertTime is the time to convert a from CSR into format f.
	ConvertTime(a *sparse.CSR, f sparse.Format) (seconds float64, ok bool)
	// FeatureTime is the time to extract the Table I feature set.
	FeatureTime(a *sparse.CSR) float64
	// Limits reports the conversion limits the oracle enforces.
	Limits() sparse.Limits
}

// MeasureOptions controls wall-clock measurement.
type MeasureOptions struct {
	// Reps is the number of repetitions per measurement; the median is
	// reported. Minimum 1.
	Reps int
	// Parallel selects the goroutine-parallel kernels (the configuration
	// applications actually run) instead of the serial ones.
	Parallel bool
	// Lim bounds format conversions.
	Lim sparse.Limits
	// Clock supplies the timestamps measurements are computed from; nil
	// means the wall clock. Tests inject a *FakeClock to script exact
	// measured durations.
	Clock Clock
}

// DefaultMeasureOptions: 5 reps, parallel kernels, default limits.
func DefaultMeasureOptions() MeasureOptions {
	return MeasureOptions{Reps: 5, Parallel: true, Lim: sparse.DefaultLimits}
}

// MeasuredOracle times the real kernels of the formats on
// sparse.MeasuredMenu; any other format is unpriced (ok = false). Results
// are cached per (matrix, format), so asking twice is free; the cache is
// keyed by pointer identity, matching the immutability convention of sparse
// matrices.
type MeasuredOracle struct {
	opt MeasureOptions
	clk Clock

	mu   sync.Mutex
	spmv map[cacheKey]timedResult
	conv map[cacheKey]timedResult
	feat map[*sparse.CSR]float64
	// converts parks a timed conversion's result until its SpMV time has
	// been measured.
	converts map[cacheKey]sparse.Matrix
}

type cacheKey struct {
	m *sparse.CSR
	f sparse.Format
}

type timedResult struct {
	seconds float64
	ok      bool
}

// NewMeasuredOracle builds a measuring oracle.
func NewMeasuredOracle(opt MeasureOptions) *MeasuredOracle {
	if opt.Reps < 1 {
		opt.Reps = 1
	}
	return &MeasuredOracle{
		opt:      opt,
		clk:      orWall(opt.Clock),
		spmv:     make(map[cacheKey]timedResult),
		conv:     make(map[cacheKey]timedResult),
		feat:     make(map[*sparse.CSR]float64),
		converts: make(map[cacheKey]sparse.Matrix),
	}
}

// Limits implements Oracle.
func (o *MeasuredOracle) Limits() sparse.Limits { return o.opt.Lim }

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

// converted returns the matrix in format f. The first touch of a (matrix,
// format) pair pays one timed conversion, whose result waits in o.converts
// for the SpMV measurement that follows it.
func (o *MeasuredOracle) converted(a *sparse.CSR, f sparse.Format) (sparse.Matrix, bool) {
	if !o.measureConvert(a, f).ok {
		return nil, false
	}
	o.mu.Lock()
	m := o.converts[cacheKey{a, f}]
	o.mu.Unlock()
	if m == nil {
		// A concurrent SpMVTime of the same pair took it first: build it
		// again, untimed.
		var err error
		if m, err = sparse.ConvertFromCSR(a, f, o.opt.Lim); err != nil {
			return nil, false
		}
	}
	return m, true
}

func (o *MeasuredOracle) measureConvert(a *sparse.CSR, f sparse.Format) timedResult {
	key := cacheKey{a, f}
	o.mu.Lock()
	if r, hit := o.conv[key]; hit {
		o.mu.Unlock()
		return r
	}
	o.mu.Unlock()

	// The one place the measured menu is consulted: a format off it is
	// answered like one the limits refuse, with no clock read and no
	// conversion, and everything downstream (trainer, selector, bundle
	// store) skips a format that has no price.
	if !slices.Contains(sparse.MeasuredMenu, f) || !sparse.CanConvert(a, f, o.opt.Lim) {
		r := timedResult{ok: false}
		o.mu.Lock()
		o.conv[key] = r
		o.mu.Unlock()
		return r
	}
	var last sparse.Matrix
	secs := medianTime(o.clk, o.opt.Reps, func() {
		m, err := sparse.ConvertFromCSR(a, f, o.opt.Lim)
		if err != nil {
			last = nil
			return
		}
		last = m
	})
	r := timedResult{seconds: secs, ok: last != nil}
	o.mu.Lock()
	o.conv[key] = r
	// Park the result for the SpMV measurement, unless a concurrent caller
	// has already made it: then nothing would ever collect it.
	if _, timed := o.spmv[key]; last != nil && !timed {
		o.converts[key] = last
	}
	o.mu.Unlock()
	return r
}

// ConvertTime implements Oracle.
func (o *MeasuredOracle) ConvertTime(a *sparse.CSR, f sparse.Format) (float64, bool) {
	if f == sparse.FmtCSR {
		return 0, true
	}
	r := o.measureConvert(a, f)
	return r.seconds, r.ok
}

// SpMVTime implements Oracle.
func (o *MeasuredOracle) SpMVTime(a *sparse.CSR, f sparse.Format) (float64, bool) {
	key := cacheKey{a, f}
	o.mu.Lock()
	if r, hit := o.spmv[key]; hit {
		o.mu.Unlock()
		return r.seconds, r.ok
	}
	o.mu.Unlock()

	m, ok := o.converted(a, f)
	if !ok {
		o.mu.Lock()
		o.spmv[key] = timedResult{ok: false}
		o.mu.Unlock()
		return 0, false
	}
	rows, cols := m.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1.0 / float64(cols+1)
	}
	y := make([]float64, rows)
	// Warm-up run outside the timed region.
	if o.opt.Parallel {
		m.SpMVParallel(y, x)
	} else {
		m.SpMV(y, x)
	}
	secs := medianTime(o.clk, o.opt.Reps, func() {
		if o.opt.Parallel {
			m.SpMVParallel(y, x)
		} else {
			m.SpMV(y, x)
		}
	})
	r := timedResult{seconds: secs, ok: true}
	o.mu.Lock()
	o.spmv[key] = r
	// spmv[key] answers every later call, so this was the converted
	// matrix's last reader: holding it any longer pins one copy of every
	// corpus matrix per format for the oracle's life.
	delete(o.converts, key)
	o.mu.Unlock()
	return r.seconds, true
}

// FeatureTime implements Oracle.
func (o *MeasuredOracle) FeatureTime(a *sparse.CSR) float64 {
	o.mu.Lock()
	if s, hit := o.feat[a]; hit {
		o.mu.Unlock()
		return s
	}
	o.mu.Unlock()
	secs := medianTime(o.clk, o.opt.Reps, func() { features.Extract(a) })
	o.mu.Lock()
	o.feat[a] = secs
	o.mu.Unlock()
	return secs
}
