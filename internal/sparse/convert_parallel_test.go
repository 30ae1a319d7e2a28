package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// bandedCSR builds a rows x rows banded matrix with half-bandwidth b, large
// enough to push every conversion onto its parallel path. Deterministic.
func bandedCSR(t testing.TB, rows, b int) *CSR {
	t.Helper()
	ptr := make([]int, rows+1)
	var col []int32
	var data []float64
	for i := 0; i < rows; i++ {
		for j := i - b; j <= i+b; j++ {
			if j < 0 || j >= rows {
				continue
			}
			col = append(col, int32(j))
			data = append(data, float64(i*31+j)*0.001+1)
		}
		ptr[i+1] = len(data)
	}
	m, err := NewCSR(rows, rows, ptr, col, data)
	if err != nil {
		t.Fatalf("bandedCSR: %v", err)
	}
	return m
}

// skewedCSR builds a matrix whose row lengths cycle 1..13, giving SELL real
// per-window sorting work. Deterministic.
func skewedCSR(t testing.TB, rows int) *CSR {
	t.Helper()
	cols := rows
	ptr := make([]int, rows+1)
	var col []int32
	var data []float64
	for i := 0; i < rows; i++ {
		n := i%13 + 1
		seen := make(map[int]bool, n)
		for k := 0; k < n; k++ {
			j := (i*131 + k*977) % cols
			if seen[j] {
				continue
			}
			seen[j] = true
			col = append(col, int32(j))
			data = append(data, float64(i+k)*0.01+1)
		}
		sortRowSegment(col[ptr[i]:], data[ptr[i]:])
		ptr[i+1] = len(data)
	}
	m, err := NewCSR(rows, cols, ptr, col, data)
	if err != nil {
		t.Fatalf("skewedCSR: %v", err)
	}
	return m
}

// powerLawCSR builds a rows x rows matrix whose row lengths follow a power
// law (Pareto, exponent 2.1, mean about 10, as matgen's power-law family
// draws them) over distinct random columns. At 16384 rows its SELL sigma
// climbs past the ladder's first rung. Deterministic.
func powerLawCSR(t testing.TB, rows int) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(16))
	ptr := make([]int, rows+1)
	var col []int32
	var data []float64
	for i := 0; i < rows; i++ {
		n := int(10 * 0.1 / 1.1 / math.Pow(1-rng.Float64(), 1/1.1))
		n = min(max(n, 1), rows/4)
		seen := make(map[int32]bool, n)
		for len(seen) < n {
			c := int32(rng.Intn(rows))
			if !seen[c] {
				seen[c] = true
				col = append(col, c)
				data = append(data, float64(rng.Intn(2000)-1000)/64)
			}
		}
		sortRowSegment(col[ptr[i]:], data[ptr[i]:])
		ptr[i+1] = len(col)
	}
	m, err := NewCSR(rows, rows, ptr, col, data)
	if err != nil {
		t.Fatalf("powerLawCSR: %v", err)
	}
	return m
}

// PowerLawCSR is powerLawCSR for the package's external tests.
var PowerLawCSR = powerLawCSR

// sortRowSegment insertion-sorts one row's (col, data) pairs by column.
func sortRowSegment(col []int32, data []float64) {
	for i := 1; i < len(col); i++ {
		for j := i; j > 0 && col[j-1] > col[j]; j-- {
			col[j-1], col[j] = col[j], col[j-1]
			data[j-1], data[j] = data[j], data[j-1]
		}
	}
}

// convertAt runs conv with GOMAXPROCS pinned to procs, restoring it after.
func convertAt(t *testing.T, procs int, conv func() (any, error)) any {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	m, err := conv()
	if err != nil {
		t.Fatalf("conversion at GOMAXPROCS=%d: %v", procs, err)
	}
	return m
}

// layoutOnly drops SELL's slice partition, which is cut for the worker
// count at construction the way CSR's row partition is.
func layoutOnly(m any) any {
	if s, ok := m.(*SELL); ok {
		c := *s
		c.sliceRanges = nil
		return &c
	}
	return m
}

// TestConversionsDeterministicAcrossWorkerCounts checks the contract the
// parallel conversion kernels were designed around: the produced matrix is
// bit-identical at GOMAXPROCS 1 (serial path), 2, and the test maximum. The
// comparison is reflect.DeepEqual over the full structs, so every internal
// array (pointers, permutations, padding) must match, not
// just the SpMV result.
func TestConversionsDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	maxP := runtime.GOMAXPROCS(0)
	if maxP < 4 {
		maxP = 4
	}
	lim := DefaultLimits

	cases := []struct {
		name    string
		a       *CSR
		formats []string
	}{
		// Banded structure converts everywhere, with enough nnz for the
		// parallel paths (rows*(2b+1) ~ 14k > MinParallelWork).
		{"banded", bandedCSR(t, 2000, 3), []string{"DIA", "SELL"}},
		// Skewed row lengths exercise SELL sorting; the
		// diagonal count is too high for DIA, so it stays out.
		{"skewed", skewedCSR(t, 3000), []string{"SELL"}},
		{"random", randCSR(t, rng, 600, 600, 0.02), []string{"SELL"}},
		// Tiny matrix: all conversions take the serial fallback at every
		// worker count; guards the threshold gate itself.
		{"tiny", randCSR(t, rng, 12, 12, 0.3), []string{"DIA", "SELL"}},
		// A power law whose SELL sigma climbs past the first rung: wide
		// windows and slot-balanced fill ranges.
		{"powerlaw", powerLawCSR(t, 16384), []string{"SELL"}},
	}

	convs := map[string]func(a *CSR) (any, error){
		"DIA":  func(a *CSR) (any, error) { return CSRToDIA(a, lim) },
		"SELL": func(a *CSR) (any, error) { return NewSELLFromCSR(a) },
	}

	for _, c := range cases {
		for _, f := range c.formats {
			conv := convs[f]
			t.Run(c.name+"/"+f, func(t *testing.T) {
				ref := layoutOnly(convertAt(t, 1, func() (any, error) { return conv(c.a) }))
				for _, p := range []int{2, maxP} {
					got := layoutOnly(convertAt(t, p, func() (any, error) { return conv(c.a) }))
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("GOMAXPROCS=%d conversion differs from serial result", p)
					}
				}
			})
		}
	}
}

// TestCSRDiagonalsAcrossWorkerCounts covers the bitmap-merge path on a
// matrix with many occupied diagonals (too many for an actual DIA
// conversion, which is exactly when the selector still calls CSRDiagonals).
func TestCSRDiagonalsAcrossWorkerCounts(t *testing.T) {
	a := skewedCSR(t, 3000)
	ref := CSRDiagonals(a)
	maxP := runtime.GOMAXPROCS(0)
	if maxP < 4 {
		maxP = 4
	}
	for _, p := range []int{1, 2, maxP} {
		old := runtime.GOMAXPROCS(p)
		got := CSRDiagonals(a)
		runtime.GOMAXPROCS(old)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("GOMAXPROCS=%d: CSRDiagonals differs from reference", p)
		}
	}
	// Sanity on a known structure: half-bandwidth 2 occupies exactly the
	// offsets -2..2.
	b := bandedCSR(t, 50, 2)
	got := CSRDiagonals(b)
	want := []int{-2, -1, 0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("banded diagonals = %v, want %v", got, want)
	}
}

// TestCSRDiagLinearMerge pins the linear-merge Diag against the per-element
// binary search it replaced, including rectangular shapes and rows with no
// stored diagonal entry.
func TestCSRDiagLinearMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct {
		rows, cols int
		density    float64
	}{
		{60, 60, 0.1},
		{80, 40, 0.15},
		{40, 80, 0.15},
		{30, 30, 0}, // fully empty: diagonal must be all zeros
		{1, 1, 1},
	}
	for _, sh := range shapes {
		a := randCSR(t, rng, sh.rows, sh.cols, sh.density)
		d := a.Diag()
		n := sh.rows
		if sh.cols < n {
			n = sh.cols
		}
		if len(d) != n {
			t.Fatalf("%dx%d: Diag length %d, want %d", sh.rows, sh.cols, len(d), n)
		}
		for i := 0; i < n; i++ {
			if want := a.At(i, i); d[i] != want {
				t.Errorf("%dx%d: Diag[%d] = %g, want %g", sh.rows, sh.cols, i, d[i], want)
			}
		}
	}
}

// TestConversionsRejectChangedColumns: a CSR's exported Col can be changed
// after NewCSR checked it. Every menu conversion checks the columns in the
// pass that copies them and returns an error — no panic, and no layout
// whose SpMV would gather x out of bounds — naming the same row at one
// worker and at four.
func TestConversionsRejectChangedColumns(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(a *CSR, row int)
		want   string
	}{
		{"descending pair", func(a *CSR, row int) {
			k := a.Ptr[row]
			a.Col[k], a.Col[k+1] = a.Col[k+1], a.Col[k]
		}, "not strictly ascending"},
		{"column >= cols", func(a *CSR, row int) {
			_, cols := a.Dims()
			a.Col[a.Ptr[row+1]-1] = int32(cols)
		}, "out of range"},
	}
	for _, size := range []int{12, 3000} { // serial fill, and ranges on the team
		for _, mu := range mutations {
			for _, f := range Implemented[1:] {
				t.Run(fmt.Sprintf("%d/%s/%v", size, mu.name, f), func(t *testing.T) {
					a := bandedCSR(t, size, 2)
					row := size / 2
					mu.mutate(a, row)
					var msgs []string
					for _, procs := range []int{1, 4} {
						old := runtime.GOMAXPROCS(procs)
						m, err := ConvertFromCSR(a, f, DefaultLimits)
						runtime.GOMAXPROCS(old)
						if err == nil {
							t.Fatalf("GOMAXPROCS=%d: accepted, returned %T", procs, m)
						}
						msgs = append(msgs, err.Error())
					}
					if want := fmt.Sprintf("%s in row %d", mu.want, row); !strings.Contains(msgs[0], want) {
						t.Errorf("error %q, want it to contain %q", msgs[0], want)
					}
					if msgs[0] != msgs[1] {
						t.Errorf("error depends on the worker count: %q vs %q", msgs[0], msgs[1])
					}
				})
			}
		}
	}
}

// TestConversionsMatchTheirConstructors: DIA builds its struct directly
// instead of through NewDIA. Handing the conversion's arrays to that
// constructor must accept them and rebuild the same struct, nonzero count
// included (DIA counts nonzero values, so the band carries explicit zeros);
// and the constructor still rejects the malformed caller arrays it always
// rejected.
func TestConversionsMatchTheirConstructors(t *testing.T) {
	band := bandedCSR(t, 3000, 3)
	for k := range band.Data {
		if k%5 == 0 {
			band.Data[k] = 0
		}
	}
	for _, a := range []*CSR{band, skewedCSR(t, 3000), bandedCSR(t, 9, 1)} {
		rows, cols := a.Dims()
		if d, err := CSRToDIA(a, DefaultLimits); err == nil {
			rebuilt, err := NewDIA(rows, cols, d.Offsets, d.Data)
			if err != nil || !reflect.DeepEqual(rebuilt, d) {
				t.Errorf("%dx%d DIA: NewDIA over the conversion's arrays: %v, equal %v", rows, cols, err, reflect.DeepEqual(rebuilt, d))
			}
		}
	}

	for _, c := range []struct {
		name string
		err  error
	}{
		{"DIA offsets descending", func() error { _, err := NewDIA(2, 2, []int{1, 0}, make([]float64, 4)); return err }()},
		{"DIA offset outside", func() error { _, err := NewDIA(2, 2, []int{2}, make([]float64, 2)); return err }()},
	} {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
