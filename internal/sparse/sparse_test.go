package sparse

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// randCSR builds a random rows x cols CSR matrix with the given expected
// density. Deterministic for a given rng.
func randCSR(t testing.TB, rng *rand.Rand, rows, cols int, density float64) *CSR {
	t.Helper()
	ptr := make([]int, rows+1)
	var col []int32
	var data []float64
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				col = append(col, int32(j))
				data = append(data, rng.NormFloat64())
			}
		}
		ptr[i+1] = len(data)
	}
	m, err := NewCSR(rows, cols, ptr, col, data)
	if err != nil {
		t.Fatalf("randCSR: %v", err)
	}
	return m
}

// randVec returns a random dense vector.
func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// denseSpMV is the reference y = A*x on a dense matrix.
func denseSpMV(rows, cols int, dense, x []float64) []float64 {
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		var s float64
		for j := 0; j < cols; j++ {
			s += dense[i*cols+j] * x[j]
		}
		y[i] = s
	}
	return y
}

func vecsClose(t *testing.T, got, want []float64, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		scale := math.Abs(want[i])
		if scale < 1 {
			scale = 1
		}
		if math.Abs(got[i]-want[i]) > tol*scale {
			t.Fatalf("%s: y[%d] = %g, want %g", label, i, got[i], want[i])
		}
	}
}

// testLimits relaxes DIA's fill limit so conversions are exercised on random
// matrices that real limits would reject.
var testLimits = Limits{DIAFill: 1e9}

// allFormatsOf converts a CSR matrix into every implemented format under
// relaxed limits.
func allFormatsOf(t *testing.T, a *CSR) map[Format]Matrix {
	t.Helper()
	out := make(map[Format]Matrix, NumFormats)
	for _, f := range Implemented {
		m, err := ConvertFromCSR(a, f, testLimits)
		if err != nil {
			t.Fatalf("convert to %v: %v", f, err)
		}
		out[f] = m
	}
	return out
}

func TestFormatString(t *testing.T) {
	// The numbers are pinned: timing.ModelOracle hashes a format's number
	// into its jitter, so a renumbered format would move its figures.
	cases := map[Format]string{
		0: "COO", 1: "CSR", 2: "DIA", 3: "ELL", 4: "HYB", 5: "BSR", 6: "CSR5", 7: "SELL", 9: "JDS",
	}
	if len(cases) != len(AllFormats) {
		t.Errorf("AllFormats holds %d formats, the table %d", len(AllFormats), len(cases))
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("Format(%d).String() = %q, want %q", int(f), got, want)
		}
		parsed, err := ParseFormat(want)
		if err != nil || parsed != f {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", want, parsed, err, f)
		}
	}
	if Format(99).Valid() {
		t.Error("Format(99).Valid() = true")
	}
	if _, err := ParseFormat("NOPE"); err == nil {
		t.Error("ParseFormat(NOPE) succeeded")
	}
	// Number 8 was CSC: the slot is retired, not reused, so JDS keeps 9
	// and nothing answers to 8.
	if Format(8).Valid() || Format(8).String() != "Format(8)" {
		t.Errorf("retired Format(8): Valid %v, String %q", Format(8).Valid(), Format(8).String())
	}
	for _, name := range []string{"", "CSC"} {
		if f, err := ParseFormat(name); err == nil {
			t.Errorf("ParseFormat(%q) = %v, want an error", name, f)
		}
	}
	for _, f := range AllFormats {
		if !f.Valid() {
			t.Errorf("AllFormats holds invalid %v", f)
		}
	}
}

// TestPricedOnlyFormatsRefuseConversion: every format in AllFormats but not
// in Implemented keeps its number and name (the model oracle prices it),
// but nothing converts to it: CanConvert says no even where a fill limit
// would say yes, and ConvertFromCSR names the format as priced only. Every
// implemented format converts the same matrix.
func TestPricedOnlyFormatsRefuseConversion(t *testing.T) {
	a, err := FromDense(4, 4, []float64{1, 2, 0, 0, 3, 4, 0, 0, 0, 0, 5, 6, 0, 0, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if Implemented[0] != FmtCSR {
		t.Errorf("Implemented starts with %v, want CSR", Implemented[0])
	}
	priced := 0
	for _, f := range AllFormats {
		m, err := ConvertFromCSR(a, f, testLimits)
		if slices.Contains(Implemented, f) {
			if err != nil || !CanConvert(a, f, testLimits) || m.Format() != f {
				t.Errorf("implemented %v: CanConvert %v, ConvertFromCSR %v", f, CanConvert(a, f, testLimits), err)
			}
			continue
		}
		priced++
		if CanConvert(a, f, testLimits) {
			t.Errorf("CanConvert(%v) = true", f)
		}
		if err == nil || !strings.Contains(err.Error(), f.String()+" is priced only") {
			t.Errorf("ConvertFromCSR(%v) = %T, %v; want a priced-only error", f, m, err)
		}
	}
	if priced+len(Implemented) != len(AllFormats) {
		t.Errorf("Implemented holds a format outside AllFormats: %v", Implemented)
	}
}

func TestAllFormatsSpMVMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		rows, cols int
		density    float64
	}{
		{1, 1, 1.0},
		{7, 5, 0.4},
		{20, 20, 0.15},
		{63, 65, 0.1}, // 63 rows: a ragged last SELL slice
		{64, 64, 0.05},
		{128, 96, 0.03},
		{200, 200, 0.02},
	}
	for _, s := range shapes {
		a := randCSR(t, rng, s.rows, s.cols, s.density)
		dense, err := ToDense(a)
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(rng, s.cols)
		want := denseSpMV(s.rows, s.cols, dense, x)
		for f, m := range allFormatsOf(t, a) {
			y := make([]float64, s.rows)
			m.SpMV(y, x)
			vecsClose(t, y, want, 1e-12, f.String())
			if m.Format() != f {
				t.Errorf("%v.Format() = %v", f, m.Format())
			}
			if got := m.NNZ(); got != a.NNZ() {
				t.Errorf("%v.NNZ() = %d, want %d", f, got, a.NNZ())
			}
			r, c := m.Dims()
			if r != s.rows || c != s.cols {
				t.Errorf("%v.Dims() = %d,%d want %d,%d", f, r, c, s.rows, s.cols)
			}
			if m.Bytes() <= 0 && a.NNZ() > 0 {
				t.Errorf("%v.Bytes() = %d", f, m.Bytes())
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Large enough to actually engage the parallel paths.
	a := randCSR(t, rng, 700, 600, 0.03)
	x := randVec(rng, 600)
	want := make([]float64, 700)
	a.SpMV(want, x)
	for f, m := range allFormatsOf(t, a) {
		y := make([]float64, 700)
		m.SpMVParallel(y, x)
		vecsClose(t, y, want, 1e-12, f.String()+" parallel")
	}
}

func TestParallelSkewedRows(t *testing.T) {
	// One enormous row plus many tiny ones stresses the weighted partition
	// and the row-cost balance of every parallel kernel.
	rng := rand.New(rand.NewSource(3))
	a := skewedShape(t, rng, 400).a
	rows, cols := a.Dims()
	x := randVec(rng, cols)
	want := make([]float64, rows)
	a.SpMV(want, x)
	for f, m := range allFormatsOf(t, a) {
		y := make([]float64, rows)
		m.SpMVParallel(y, x)
		vecsClose(t, y, want, 1e-12, f.String()+" skewed parallel")
	}
}

func TestRoundTripThroughCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randCSR(t, rng, 90, 110, 0.08)
	for f, m := range allFormatsOf(t, a) {
		back, err := ToCSR(m)
		if err != nil {
			t.Fatalf("%v back to CSR: %v", f, err)
		}
		eq, err := EqualValues(a, back, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("%v round trip changed values", f)
		}
	}
}

func TestConvertBetweenAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randCSR(t, rng, 40, 40, 0.2)
	for _, from := range Implemented {
		src, err := ConvertFromCSR(a, from, testLimits)
		if err != nil {
			t.Fatal(err)
		}
		for _, to := range Implemented {
			dst, err := Convert(src, to, testLimits)
			if err != nil {
				t.Fatalf("%v -> %v: %v", from, to, err)
			}
			if dst.Format() != to {
				t.Fatalf("%v -> %v produced %v", from, to, dst.Format())
			}
			eq, err := EqualValues(a, dst, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Errorf("%v -> %v changed values", from, to)
			}
		}
	}
}

func TestEmptyMatrix(t *testing.T) {
	a, err := NewCSR(5, 5, make([]int, 6), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5}
	for f, m := range allFormatsOf(t, a) {
		y := []float64{9, 9, 9, 9, 9}
		m.SpMV(y, x)
		for i, v := range y {
			if v != 0 {
				t.Errorf("%v: empty SpMV y[%d] = %g", f, i, v)
			}
		}
		if m.NNZ() != 0 {
			t.Errorf("%v: empty NNZ = %d", f, m.NNZ())
		}
	}
}

func TestZeroDimMatrix(t *testing.T) {
	a, err := NewCSR(0, 0, []int{0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for f, m := range allFormatsOf(t, a) {
		y := []float64{}
		m.SpMV(y, []float64{})
		m.SpMVParallel(y, []float64{})
		_ = f
	}
}

// TestSpMVDimensionPanics: both entry points of every implemented format
// refuse a y or an x of the wrong length.
func TestSpMVDimensionPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randCSR(t, rng, 10, 8, 0.3)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on dimension mismatch", name)
			}
		}()
		fn()
	}
	for f, m := range allFormatsOf(t, a) {
		for name, product := range map[string]func(y, x []float64){"SpMV": m.SpMV, "SpMVParallel": m.SpMVParallel} {
			mustPanic(f.String()+" "+name+" short y", func() { product(make([]float64, 9), make([]float64, 8)) })
			mustPanic(f.String()+" "+name+" short x", func() { product(make([]float64, 10), make([]float64, 7)) })
		}
	}
}

func TestNewCSRValidation(t *testing.T) {
	cases := []struct {
		name string
		rows int
		cols int
		ptr  []int
		col  []int32
		data []float64
	}{
		{"bad ptr len", 2, 2, []int{0, 1}, []int32{0}, []float64{1}},
		{"ptr0 nonzero", 2, 2, []int{1, 1, 1}, []int32{0}, []float64{1}},
		{"ptr mismatch nnz", 2, 2, []int{0, 1, 3}, []int32{0, 1}, []float64{1, 2}},
		{"nonmonotone ptr", 2, 2, []int{0, 2, 1}, []int32{0, 1}, nil},
		{"col out of range", 1, 2, []int{0, 1}, []int32{5}, []float64{1}},
		{"cols unsorted", 1, 3, []int{0, 2}, []int32{2, 0}, []float64{1, 2}},
		{"duplicate col", 1, 3, []int{0, 2}, []int32{1, 1}, []float64{1, 2}},
		{"negative dims", -1, 2, []int{0}, nil, nil},
		{"ptr overshoots mid-array", 2, 4, []int{0, 100, 3}, []int32{0, 1, 2}, []float64{1, 2, 3}},
		{"ptr negative mid-array", 2, 4, []int{0, -1, 3}, []int32{0, 1, 2}, []float64{1, 2, 3}},
		{"cols beyond int32", 1, math.MaxInt32 + 1, []int{0, 1}, []int32{0}, []float64{1}},
		{"rows beyond int32", math.MaxInt32 + 1, 1, []int{0}, nil, nil},
	}
	for _, c := range cases {
		if _, err := NewCSR(c.rows, c.cols, c.ptr, c.col, c.data); err == nil {
			t.Errorf("%s: NewCSR accepted invalid input", c.name)
		}
	}
}

func TestDIAStructure(t *testing.T) {
	// Tridiagonal matrix: exactly 3 diagonals.
	dense := []float64{
		2, -1, 0, 0,
		-1, 2, -1, 0,
		0, -1, 2, -1,
		0, 0, -1, 2,
	}
	a, err := FromDense(4, 4, dense)
	if err != nil {
		t.Fatal(err)
	}
	d, err := CSRToDIA(a, DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumDiags() != 3 {
		t.Fatalf("NumDiags = %d, want 3", d.NumDiags())
	}
	wantOffs := []int{-1, 0, 1}
	for i, k := range d.Offsets {
		if k != wantOffs[i] {
			t.Fatalf("offset[%d] = %d, want %d", i, k, wantOffs[i])
		}
	}
	if d.NNZ() != a.NNZ() {
		t.Fatalf("DIA NNZ = %d, want %d", d.NNZ(), a.NNZ())
	}
}

func TestDIAFillLimitRejects(t *testing.T) {
	// A random scatter matrix has ~nnz distinct diagonals; strict limits
	// must reject it.
	rng := rand.New(rand.NewSource(7))
	a := randCSR(t, rng, 100, 100, 0.02)
	if _, err := CSRToDIA(a, DefaultLimits); err == nil {
		t.Error("DIA conversion of scatter matrix accepted under default limits")
	}
	if CanConvert(a, FmtDIA, DefaultLimits) {
		t.Error("CanConvert(DIA) = true for scatter matrix")
	}
}

// TestELLFillLimitRejects: ELL is priced, not built, but its fill limit
// still decides whether the model oracle and stage 2 may price it. One dense
// row among single-entry rows blows up ELL's width past the default limit;
// SELL, which pads only that row's slice, converts it.
func TestELLFillLimitRejects(t *testing.T) {
	rows, cols := 1000, 1000
	ptr := make([]int, rows+1)
	var col []int32
	var data []float64
	for j := 0; j < cols; j++ {
		col = append(col, int32(j))
		data = append(data, 1)
	}
	ptr[1] = cols
	for i := 1; i < rows; i++ {
		col = append(col, int32(i))
		data = append(data, 1)
		ptr[i+1] = ptr[i] + 1
	}
	a, err := NewCSR(rows, cols, ptr, col, data)
	if err != nil {
		t.Fatal(err)
	}
	g := Geometry{Rows: float64(rows), NNZ: float64(a.NNZ()), MaxRow: float64(a.MaxRowNNZ())}
	if DefaultLimits.Fits(FmtELL, g) {
		t.Error("ELL fill rule accepts the skewed matrix under default limits")
	}
	if CanConvert(a, FmtELL, testLimits) {
		t.Error("CanConvert(ELL) = true: ELL is priced only")
	}
	if _, err := ConvertFromCSR(a, FmtSELL, DefaultLimits); err != nil {
		t.Errorf("SELL of the skewed matrix: %v", err)
	}
}

func TestHYBWidthHeuristic(t *testing.T) {
	// 10 rows: 7 rows with 2 entries, 3 rows with 5 entries. The CUSP-style
	// width is the largest w that at least a third of the rows reach.
	rows, cols := 10, 10
	ptr := make([]int, rows+1)
	var col []int32
	var data []float64
	for i := 0; i < rows; i++ {
		n := 2
		if i < 3 {
			n = 5
		}
		for j := 0; j < n; j++ {
			col = append(col, int32(j))
			data = append(data, 1)
		}
		ptr[i+1] = len(data)
	}
	a, err := NewCSR(rows, cols, ptr, col, data)
	if err != nil {
		t.Fatal(err)
	}
	// threshold = floor(1/3 * 10) = 3 rows; 3 rows have >= 5 entries.
	if w := HYBWidth(a); w != 5 {
		t.Errorf("HYBWidth = %d, want 5", w)
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randCSR(t, rng, 30, 50, 0.1)
	at := a.Transpose()
	r, c := at.Dims()
	if r != 50 || c != 30 {
		t.Fatalf("transpose dims %dx%d", r, c)
	}
	da, _ := ToDense(a)
	dat, _ := ToDense(at)
	for i := 0; i < 30; i++ {
		for j := 0; j < 50; j++ {
			if da[i*50+j] != dat[j*30+i] {
				t.Fatalf("A[%d,%d] != At[%d,%d]", i, j, j, i)
			}
		}
	}
	// Double transpose is identity.
	att := at.Transpose()
	eq, _ := EqualValues(a, att, 0)
	if !eq {
		t.Error("double transpose changed values")
	}
}

func TestCSRAt(t *testing.T) {
	dense := []float64{1, 0, 2, 0, 3, 0}
	a, err := FromDense(2, 3, dense)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if got := a.At(i, j); got != dense[i*3+j] {
				t.Errorf("At(%d,%d) = %g, want %g", i, j, got, dense[i*3+j])
			}
		}
	}
}

// Property: for random matrices, every format computes the same SpMV as CSR.
func TestQuickSpMVAgreement(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(12))}
	prop := func(seed int64, rowsRaw, colsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int(rowsRaw)%80 + 1
		cols := int(colsRaw)%80 + 1
		var tt testing.T
		a := randCSR(&tt, rng, rows, cols, 0.15)
		x := randVec(rng, cols)
		want := make([]float64, rows)
		a.SpMV(want, x)
		for _, f := range Implemented {
			m, err := ConvertFromCSR(a, f, testLimits)
			if err != nil {
				return false
			}
			y := make([]float64, rows)
			m.SpMV(y, x)
			for i := range y {
				if math.Abs(y[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: conversions preserve NNZ and values through round trips.
func TestQuickRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(13))}
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%60 + 1
		var tt testing.T
		a := randCSR(&tt, rng, n, n, 0.2)
		for _, f := range Implemented {
			m, err := ConvertFromCSR(a, f, testLimits)
			if err != nil {
				return false
			}
			back, err := ToCSR(m)
			if err != nil {
				return false
			}
			eq, err := EqualValues(a, back, 0)
			if err != nil || !eq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: every format's SpMVParallel equals its own SpMV bit for bit.
func TestQuickParallelAgreement(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(14))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(300) + 100
		cols := rng.Intn(300) + 100
		var tt testing.T
		a := randCSR(&tt, rng, rows, cols, 0.05)
		x := randVec(rng, cols)
		for _, f := range Implemented {
			m, err := ConvertFromCSR(a, f, testLimits)
			if err != nil {
				return false
			}
			want, y := make([]float64, rows), make([]float64, rows)
			m.SpMV(want, x)
			m.SpMVParallel(y, x)
			if err := sameBits(want, y); err != nil {
				t.Logf("seed %d %v: %v", seed, f, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestCSRDiag(t *testing.T) {
	dense := []float64{
		1, 2, 0,
		0, 0, 3,
		4, 0, 5,
		0, 0, 0,
	}
	a, err := FromDense(4, 3, dense)
	if err != nil {
		t.Fatal(err)
	}
	d := a.Diag()
	want := []float64{1, 0, 5}
	if len(d) != len(want) {
		t.Fatalf("Diag length %d, want %d", len(d), len(want))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("Diag[%d] = %g, want %g", i, d[i], want[i])
		}
	}
}
