// Package check is the correctness-verification subsystem: a differential
// oracle that holds every sparse format to the two invariants the paper's
// argument rests on, and the fuzz-friendly decoders its native fuzz targets
// build on.
//
// The invariants:
//
//  1. Conversion is lossless and deterministic. Converting CSR to any
//     format must produce a bit-identical layout at every worker count
//     (the parallel conversion kernels promise determinism), and the
//     round trip back to CSR must reproduce the original payload exactly
//     — same Ptr, same Col, same Data bits.
//  2. Every format computes the same y = A*x. Kernels are free to
//     reassociate the per-row sums (DIA's per-diagonal accumulation, the
//     AVX2 kernels' four interleaved accumulators), so agreement is
//     asserted against a sequential float64 reference within a principled
//     floating-point bound: two summations of the same n terms in
//     different orders differ by at most 2·γₙ·Σ|terms| where
//     γₙ = n·u/(1−n·u) and u is the unit roundoff (Higham, Accuracy and
//     Stability of Numerical Algorithms, §4.2). No tolerance knobs to tune,
//     no flaky epsilons. Within one format and kernel variant the order is
//     the row's alone, so the parallel product equals the serial one bit
//     for bit at any worker count.
//
// Differential applies both invariants to one matrix across every
// implemented format and worker count; the fuzz targets in fuzz_test.go
// apply them to adversarial inputs decoded from raw bytes.
package check

import (
	"fmt"
	"math"
	"reflect"
	"runtime"

	"repro/internal/sparse"
)

// ulp is the unit roundoff of float64 (2⁻⁵³).
const ulp = 1.0 / (1 << 53)

// gamma returns γₙ = n·u/(1−n·u), the standard bound constant for the
// relative error of an n-term float64 summation.
func gamma(n int) float64 {
	nu := float64(n) * ulp
	return nu / (1 - nu)
}

// RefSpMV computes the reference y = A·x: sequential float64 accumulation
// in row-major, ascending-column order — the canonical ordering every
// other kernel's result is compared against.
func RefSpMV(a *sparse.CSR, x []float64) []float64 {
	rows, _ := a.Dims()
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		var sum float64
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			sum += a.Data[k] * x[a.Col[k]]
		}
		y[i] = sum
	}
	return y
}

// SpMVBounds returns the per-row absolute error bound for any correctly
// rounded reordering of row i's dot product: 2·γ(nᵢ+1)·Σₖ|aᵢₖ·xₖ|. A row
// with no entries (or only zero products) gets bound 0 — every kernel must
// produce exactly 0 there.
func SpMVBounds(a *sparse.CSR, x []float64) []float64 {
	rows, _ := a.Dims()
	bounds := make([]float64, rows)
	for i := 0; i < rows; i++ {
		var absSum float64
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			absSum += math.Abs(a.Data[k] * x[a.Col[k]])
		}
		n := a.Ptr[i+1] - a.Ptr[i]
		bounds[i] = 2 * gamma(n+1) * absSum
	}
	return bounds
}

// ReductionBound returns the absolute error bound for the inner product
// Σ xᵢ·yᵢ accumulated in float64 in any order — serially, in blocks, with
// interleaved accumulators, as a tree: γₙ·Σ|xᵢ·yᵢ| (Higham §3.1; n − 1
// additions and one multiplication touch any term). The vector layer's
// blocked reductions are held to it against CompensatedDot; a plain sum is
// the case y = 1.
func ReductionBound(x, y []float64) float64 {
	var absSum float64
	for i := range x {
		absSum += math.Abs(x[i] * y[i])
	}
	return gamma(len(x)) * absSum
}

// CompensatedDot returns Σ xᵢ·yᵢ as if accumulated in twice the working
// precision and rounded once (Ogita, Rump and Oishi's Dot2: each product's
// and each addition's rounding error is recovered exactly and summed on the
// side). It is the reference a reordered reduction is compared against: its
// own error is one rounding of the result plus a γₙ² term.
func CompensatedDot(x, y []float64) float64 {
	var s, c float64
	for i := range x {
		p := x[i] * y[i]
		pe := math.FMA(x[i], y[i], -p)
		t := s + p
		bv := t - s
		c += ((s - (t - bv)) + (p - bv)) + pe
		s = t
	}
	return s + c
}

// compareVec checks |got−ref| ≤ bound elementwise. NaN anywhere is an
// immediate failure: no generated matrix produces one, so a NaN means a
// kernel read uninitialized or out-of-range state.
func compareVec(label string, ref, got, bounds []float64) error {
	if len(got) != len(ref) {
		return fmt.Errorf("%s: length %d, want %d", label, len(got), len(ref))
	}
	for i := range ref {
		if math.IsNaN(got[i]) {
			return fmt.Errorf("%s: y[%d] is NaN (ref %g)", label, i, ref[i])
		}
		if diff := math.Abs(got[i] - ref[i]); diff > bounds[i] {
			return fmt.Errorf("%s: y[%d] = %.17g, ref %.17g, |diff| %g exceeds bound %g",
				label, i, got[i], ref[i], diff, bounds[i])
		}
	}
	return nil
}

// testVector returns a deterministic, sign-mixed x with no zeros, so every
// stored entry contributes to the products the bounds are computed from.
func testVector(cols int) []float64 {
	x := make([]float64, cols)
	for i := range x {
		x[i] = 0.5 + float64(i%7)*0.25
		if i%3 == 1 {
			x[i] = -x[i]
		}
	}
	return x
}

// CheckSpMV verifies m's serial SpMV against the sequential reference on a
// within the reordering bound, and requires its parallel SpMV to equal the
// serial one bit for bit: every kernel funnels both entry points through one
// body whose summation order is fixed by the row, not by the worker count.
func CheckSpMV(a *sparse.CSR, m sparse.Matrix) error {
	rows, cols := a.Dims()
	if mr, mc := m.Dims(); mr != rows || mc != cols {
		return fmt.Errorf("%v: dims %dx%d, want %dx%d", m.Format(), mr, mc, rows, cols)
	}
	x := testVector(cols)
	ref := RefSpMV(a, x)
	bounds := SpMVBounds(a, x)

	y := make([]float64, rows)
	m.SpMV(y, x)
	if err := compareVec(fmt.Sprintf("%v SpMV", m.Format()), ref, y, bounds); err != nil {
		return err
	}
	// Fill yp with garbage: kernels must overwrite, not accumulate into, y.
	yp := make([]float64, rows)
	for i := range yp {
		yp[i] = math.NaN()
	}
	m.SpMVParallel(yp, x)
	return equalBits(fmt.Sprintf("%v SpMVParallel", m.Format()), y, yp)
}

// equalBits requires got to hold exactly want's float64 bit patterns.
func equalBits(label string, want, got []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: y[%d] = %.17g, want bit-identical %.17g", label, i, got[i], want[i])
		}
	}
	return nil
}

// CheckSpMM verifies the blocked CSR kernel (serial and parallel) against k
// independent reference SpMV sweeps.
func CheckSpMM(a *sparse.CSR, k int) error {
	return CheckSpMMFormat(a, a, k)
}

// CheckSpMMFormat verifies m's multi-vector product through the package
// dispatcher — the blocked kernel for CSR, the column-at-a-time fallback for
// every other format, serial and parallel both — against k independent
// reference SpMV sweeps on a. Each output column must land
// within the same reordering bound as a lone SpMV of the matching input
// column: blocking amortizes matrix traffic, it must not change the math.
func CheckSpMMFormat(a *sparse.CSR, m sparse.Matrix, k int) error {
	rows, cols := a.Dims()
	x := make([]float64, cols*k)
	for i := range x {
		x[i] = 0.25 + float64(i%11)*0.125
		if i%4 == 2 {
			x[i] = -x[i]
		}
	}
	y := make([]float64, rows*k)
	sparse.SpMM(m, y, x, k)
	if err := checkSpMMColumns(a, fmt.Sprintf("%v SpMM", m.Format()), y, x, k); err != nil {
		return err
	}
	// Reuse y unzeroed: blocked kernels must overwrite, not accumulate.
	sparse.SpMMParallel(m, y, x, k)
	return checkSpMMColumns(a, fmt.Sprintf("%v SpMMParallel", m.Format()), y, x, k)
}

// checkSpMMColumns verifies each of the k columns of y = A·X against the
// reference SpMV of the matching column of X.
func checkSpMMColumns(a *sparse.CSR, label string, y, x []float64, k int) error {
	rows, cols := a.Dims()
	xc := make([]float64, cols)
	yc := make([]float64, rows)
	for c := 0; c < k; c++ {
		for j := 0; j < cols; j++ {
			xc[j] = x[j*k+c]
		}
		for i := 0; i < rows; i++ {
			yc[i] = y[i*k+c]
		}
		ref := RefSpMV(a, xc)
		bounds := SpMVBounds(a, xc)
		if err := compareVec(fmt.Sprintf("%s col %d", label, c), ref, yc, bounds); err != nil {
			return err
		}
	}
	return nil
}

// EqualCSR compares two CSR matrices payload-for-payload: dimensions, row
// pointers, column indices, and the exact bit patterns of the values.
// Construction-time caches (worker partitions) are deliberately excluded —
// they legitimately vary with GOMAXPROCS.
func EqualCSR(want, got *sparse.CSR) error {
	wr, wc := want.Dims()
	gr, gc := got.Dims()
	if wr != gr || wc != gc {
		return fmt.Errorf("dims %dx%d, want %dx%d", gr, gc, wr, wc)
	}
	// Element-wise (not DeepEqual): an nnz-0 matrix may legitimately come
	// back with empty-but-non-nil arrays where the original had nil.
	if len(want.Ptr) != len(got.Ptr) {
		return fmt.Errorf("row pointer length %d, want %d", len(got.Ptr), len(want.Ptr))
	}
	for i := range want.Ptr {
		if want.Ptr[i] != got.Ptr[i] {
			return fmt.Errorf("ptr[%d] = %d, want %d", i, got.Ptr[i], want.Ptr[i])
		}
	}
	if len(want.Col) != len(got.Col) {
		return fmt.Errorf("column index length %d, want %d", len(got.Col), len(want.Col))
	}
	for k := range want.Col {
		if want.Col[k] != got.Col[k] {
			return fmt.Errorf("col[%d] = %d, want %d", k, got.Col[k], want.Col[k])
		}
	}
	if len(want.Data) != len(got.Data) {
		return fmt.Errorf("nnz %d, want %d", len(got.Data), len(want.Data))
	}
	for k := range want.Data {
		if math.Float64bits(want.Data[k]) != math.Float64bits(got.Data[k]) {
			return fmt.Errorf("data[%d] = %.17g, want bit-identical %.17g", k, got.Data[k], want.Data[k])
		}
	}
	return nil
}

// CheckRoundTrip converts m back to CSR and requires bit-identity with the
// original a. Valid only when a stores no explicit zeros (the padded
// formats cannot distinguish a stored zero from padding and drop it); the
// generators and fuzz decoders in this package guarantee that.
func CheckRoundTrip(a *sparse.CSR, m sparse.Matrix) error {
	rt, err := sparse.ToCSR(m)
	if err != nil {
		return fmt.Errorf("%v round trip: %w", m.Format(), err)
	}
	if err := EqualCSR(a, rt); err != nil {
		return fmt.Errorf("%v round trip: %w", m.Format(), err)
	}
	return nil
}

// payload projects a matrix onto its exported storage arrays (plus
// dimensions), excluding worker-count-dependent caches, so layouts produced
// at different worker counts can be compared with reflect.DeepEqual.
func payload(m sparse.Matrix) any {
	rows, cols := m.Dims()
	dims := [2]int{rows, cols}
	switch a := m.(type) {
	case *sparse.CSR:
		return []any{dims, a.Ptr, a.Col, a.Data}
	case *sparse.COO:
		return []any{dims, a.Row, a.Col, a.Data}
	case *sparse.DIA:
		return []any{dims, a.Offsets, a.Data}
	case *sparse.ELL:
		return []any{dims, a.Width, a.Cols, a.Data}
	case *sparse.HYB:
		return []any{dims, payload(a.Ell), payload(a.Coo)}
	case *sparse.SELL:
		return []any{dims, a.Perm, a.SliceWidth, a.SlicePtr, a.Cols, a.Data}
	case *sparse.JDS:
		return []any{dims, a.Perm, a.DiagPtr, a.Col, a.Data}
	default:
		return m
	}
}

// Options configures a Differential run.
type Options struct {
	// Lim bounds the conversions; zero value means sparse.DefaultLimits.
	Lim sparse.Limits
	// Workers lists the GOMAXPROCS values to convert under (typically
	// {1, 2, max}). Empty means "current setting only, don't touch
	// GOMAXPROCS" — the mode the fuzz targets use, since mutating global
	// state from fuzz workers is hostile. Differential restores the
	// original GOMAXPROCS before returning; it must not run concurrently
	// with other GOMAXPROCS-sensitive work.
	Workers []int
	// Formats lists the formats to verify; empty means sparse.Implemented.
	Formats []sparse.Format
	// SpMMColumns is the column count of the SpMM check, applied to every
	// format (blocked kernel or fallback) at every worker count; 0 disables
	// it.
	SpMMColumns int
}

// DefaultWorkers returns the worker-count sweep {1, 2, GOMAXPROCS},
// deduplicated for machines already pinned low.
func DefaultWorkers() []int {
	max := runtime.GOMAXPROCS(0)
	ws := []int{1}
	if max >= 2 {
		ws = append(ws, 2)
	}
	if max > 2 {
		ws = append(ws, max)
	}
	return ws
}

// CheckFormat runs the conversion invariants for one format on one matrix
// at the worker counts in opt: identical layout at every count, lossless
// round trip, and SpMV agreement with the reference. Formats the limits
// reject are verified to fail conversion consistently and then skipped.
// The returned bool reports whether the format was representable.
func CheckFormat(a *sparse.CSR, f sparse.Format, opt Options) (bool, error) {
	lim := opt.Lim
	if lim == (sparse.Limits{}) {
		lim = sparse.DefaultLimits
	}
	if !sparse.CanConvert(a, f, lim) {
		// The negative answer must be consistent with the real conversion.
		if _, err := sparse.ConvertFromCSR(a, f, lim); err == nil {
			return false, fmt.Errorf("%v: CanConvert says no but conversion succeeded", f)
		}
		return false, nil
	}
	workers := opt.Workers
	if len(workers) == 0 {
		workers = []int{0} // current setting, no pinning
	}
	var first any
	firstW := 0
	for _, w := range workers {
		m, err := convertAt(a, f, lim, w)
		if err != nil {
			return true, fmt.Errorf("%v at %d workers: %w", f, w, err)
		}
		p := payload(m)
		if first == nil {
			first, firstW = p, w
		} else if !reflect.DeepEqual(first, p) {
			return true, fmt.Errorf("%v: layout at %d workers differs from %d workers", f, w, firstW)
		}
		if err := CheckRoundTrip(a, m); err != nil {
			return true, fmt.Errorf("at %d workers: %w", w, err)
		}
		if err := CheckSpMV(a, m); err != nil {
			return true, fmt.Errorf("%v at %d workers: %w", f, w, err)
		}
		if opt.SpMMColumns > 0 {
			if err := CheckSpMMFormat(a, m, opt.SpMMColumns); err != nil {
				return true, fmt.Errorf("%v at %d workers: %w", f, w, err)
			}
		}
	}
	return true, nil
}

// convertAt runs the conversion with GOMAXPROCS pinned to w (w <= 0 leaves
// it alone), restoring the previous setting before returning.
func convertAt(a *sparse.CSR, f sparse.Format, lim sparse.Limits, w int) (sparse.Matrix, error) {
	if w > 0 {
		old := runtime.GOMAXPROCS(w)
		defer runtime.GOMAXPROCS(old)
	}
	return sparse.ConvertFromCSR(a, f, lim)
}

// Differential runs the full oracle on one matrix: every format in
// opt.Formats through CheckFormat, plus the SpMM check. It returns the
// first failure, wrapped with enough context to reproduce it, and the set
// of formats that were actually representable (so callers can assert the
// sweep did not silently skip everything).
func Differential(a *sparse.CSR, opt Options) (map[sparse.Format]bool, error) {
	formats := opt.Formats
	if len(formats) == 0 {
		formats = sparse.Implemented
	}
	covered := make(map[sparse.Format]bool, len(formats))
	for _, f := range formats {
		ok, err := CheckFormat(a, f, opt)
		if err != nil {
			return covered, err
		}
		covered[f] = ok
	}
	if opt.SpMMColumns > 0 {
		if err := CheckSpMM(a, opt.SpMMColumns); err != nil {
			return covered, err
		}
	}
	return covered, nil
}
