package sparse

import (
	"fmt"
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

// skewedCSR builds a matrix whose row lengths cycle 1..13, giving HYB a real
// COO overflow and SELL real per-window sorting work. Deterministic.
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
		{"banded", bandedCSR(t, 2000, 3), []string{"DIA", "ELL", "HYB", "SELL"}},
		// Skewed row lengths exercise HYB overflow and SELL sorting; the
		// diagonal count is too high for DIA, so it stays out.
		{"skewed", skewedCSR(t, 3000), []string{"ELL", "HYB", "SELL"}},
		{"random", randCSR(t, rng, 600, 600, 0.02), []string{"ELL", "HYB", "SELL"}},
		// Tiny matrix: all conversions take the serial fallback at every
		// worker count; guards the threshold gate itself.
		{"tiny", randCSR(t, rng, 12, 12, 0.3), []string{"DIA", "ELL", "HYB", "SELL"}},
	}

	convs := map[string]func(a *CSR) (any, error){
		"DIA":  func(a *CSR) (any, error) { return CSRToDIA(a, lim) },
		"ELL":  func(a *CSR) (any, error) { return CSRToELL(a, lim) },
		"HYB":  func(a *CSR) (any, error) { return CSRToHYB(a, lim) },
		"SELL": func(a *CSR) (any, error) { return NewSELLFromCSR(a) },
	}

	for _, c := range cases {
		for _, f := range c.formats {
			conv := convs[f]
			t.Run(c.name+"/"+f, func(t *testing.T) {
				ref := convertAt(t, 1, func() (any, error) { return conv(c.a) })
				for _, p := range []int{2, maxP} {
					got := convertAt(t, p, func() (any, error) { return conv(c.a) })
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
	formats := []Format{FmtDIA, FmtELL, FmtHYB, FmtSELL, FmtJDS}
	for _, size := range []int{12, 3000} { // serial fill, and ranges on the team
		for _, mu := range mutations {
			for _, f := range formats {
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

// TestConversionsMatchTheirConstructors: DIA, ELL and HYB build their structs
// directly instead of through NewDIA/NewELL/NewCOO/NewHYB. Handing the
// conversion's arrays to those constructors must accept them and rebuild the
// same struct, nonzero counts included (DIA counts nonzero values, so the
// band carries explicit zeros); and the constructors still reject the
// malformed caller arrays they always rejected.
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
		e, err := CSRToELL(a, DefaultLimits)
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt, err := NewELL(rows, cols, e.Width, e.Cols, e.Data); err != nil || !reflect.DeepEqual(rebuilt, e) {
			t.Errorf("%dx%d ELL: NewELL over the conversion's arrays: %v", rows, cols, err)
		}
		h, err := CSRToHYB(a, DefaultLimits)
		if err != nil {
			t.Fatal(err)
		}
		ell, err1 := NewELL(rows, cols, h.Ell.Width, h.Ell.Cols, h.Ell.Data)
		coo, err2 := NewCOO(rows, cols, h.Coo.Row, h.Coo.Col, h.Coo.Data)
		if err1 != nil || err2 != nil {
			t.Fatalf("%dx%d HYB parts rejected: %v, %v", rows, cols, err1, err2)
		}
		if rebuilt, err := NewHYB(ell, coo); err != nil || !reflect.DeepEqual(rebuilt, h) {
			t.Errorf("%dx%d HYB: NewHYB over the conversion's parts: %v", rows, cols, err)
		}
	}

	for _, c := range []struct {
		name string
		err  error
	}{
		{"ELL nonzero padding", func() error { _, err := NewELL(1, 3, 2, []int32{0, ELLPad}, []float64{1, 2}); return err }()},
		{"ELL entry after padding", func() error { _, err := NewELL(1, 3, 2, []int32{ELLPad, 1}, []float64{0, 2}); return err }()},
		{"ELL descending", func() error { _, err := NewELL(1, 3, 2, []int32{2, 1}, []float64{1, 2}); return err }()},
		{"ELL column >= cols", func() error { _, err := NewELL(1, 3, 2, []int32{0, 3}, []float64{1, 2}); return err }()},
		{"DIA offsets descending", func() error { _, err := NewDIA(2, 2, []int{1, 0}, make([]float64, 4)); return err }()},
		{"DIA offset outside", func() error { _, err := NewDIA(2, 2, []int{2}, make([]float64, 2)); return err }()},
		{"HYB part shapes differ", func() error {
			ell, _ := NewELL(2, 2, 0, nil, nil)
			coo, _ := NewCOO(3, 2, nil, nil, nil)
			_, err := NewHYB(ell, coo)
			return err
		}()},
	} {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
