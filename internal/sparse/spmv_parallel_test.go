package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// diaSpMVDiagonalMajor is the untiled DIA kernel the row-tiled body replaced:
// zero y, then sweep each diagonal over its whole row range in ascending
// offset order. The generic tiled body must reproduce it bit for bit.
func diaSpMVDiagonalMajor(m *DIA, y, x []float64) {
	clear(y)
	for d, k := range m.Offsets {
		lo, hi := diagRowRange(m.rows, m.cols, k)
		diag := m.Data[d*m.rows : (d+1)*m.rows]
		xs := x[lo+k : hi+k]
		ys := y[lo:hi]
		ds := diag[lo:hi]
		for i := range ys {
			ys[i] += ds[i] * xs[i]
		}
	}
}

// parallelShape is one matrix of the serial-equals-parallel sweep.
type parallelShape struct {
	name string
	a    *CSR
}

// bandShape builds a rows x cols matrix from the given diagonals, each
// clipped to the matrix, with values that make reassociation visible.
func bandShape(t *testing.T, rows, cols int, offsets []int) parallelShape {
	t.Helper()
	var ri, ci []int32
	var v []float64
	for _, k := range offsets {
		lo, hi := diagRowRange(rows, cols, k)
		for i := lo; i < hi; i++ {
			ri = append(ri, int32(i))
			ci = append(ci, int32(i+k))
			v = append(v, 1/float64(3+(i*7+k)%13)-0.11)
		}
	}
	a, err := CSRFromTriplets(rows, cols, ri, ci, v)
	if err != nil {
		t.Fatal(err)
	}
	return parallelShape{fmt.Sprintf("band-%dx%d", rows, cols), a}
}

// longRowsShape is a tridiagonal matrix with a 150-entry row every 61 rows:
// too many diagonals for DIA's fill limit, and rows of very different cost
// for the weighted partition.
func longRowsShape(t *testing.T, n int) parallelShape {
	t.Helper()
	var ri, ci []int32
	var v []float64
	add := func(i, j int) {
		ri = append(ri, int32(i))
		ci = append(ci, int32(j))
		v = append(v, 1/float64(5+(i*3+j)%17)-0.07)
	}
	for i := 0; i < n; i++ {
		if i%61 == 5 {
			for j := i - 1; j < n && j < i-1+7*150; j += 7 {
				add(i, j)
			}
			continue
		}
		for j := max(i-1, 0); j <= min(i+1, n-1); j++ {
			add(i, j)
		}
	}
	a, err := CSRFromTriplets(n, n, ri, ci, v)
	if err != nil {
		t.Fatal(err)
	}
	return parallelShape{"long-rows", a}
}

// staircaseShape gives row i of n the n-i leading columns: every row length
// is distinct, so every SELL slice has its own width and a slot-balanced
// range boundary falls between slices of different widths.
func staircaseShape(t *testing.T, n int) parallelShape {
	t.Helper()
	ptr := make([]int, n+1)
	var col []int32
	var data []float64
	for i := 0; i < n; i++ {
		for j := 0; j < n-i; j++ {
			col = append(col, int32(j))
			data = append(data, 1/float64(7+(i+j*5)%19)-0.05)
		}
		ptr[i+1] = len(col)
	}
	a, err := NewCSR(n, n, ptr, col, data)
	if err != nil {
		t.Fatal(err)
	}
	return parallelShape{"staircase", a}
}

// skewedShape is one dense row followed by n-1 rows of which two thirds are
// empty, drawn from rng: a weighted partition gives the dense row a range of
// its own.
func skewedShape(t *testing.T, rng *rand.Rand, n int) parallelShape {
	t.Helper()
	ptr := make([]int, n+1)
	var col []int32
	var data []float64
	for j := 0; j < n; j++ { // dense row 0
		col = append(col, int32(j))
		data = append(data, rng.NormFloat64())
	}
	ptr[1] = len(data)
	for i := 1; i < n; i++ {
		if i%3 == 0 { // two thirds of remaining rows are empty
			col = append(col, int32(rng.Intn(n)))
			data = append(data, rng.NormFloat64())
		}
		ptr[i+1] = len(data)
	}
	a, err := NewCSR(n, n, ptr, col, data)
	if err != nil {
		t.Fatal(err)
	}
	return parallelShape{"skewed", a}
}

// TestSpMVParallelBitIdenticalToSerial: every implemented format's parallel
// product equals its serial one bit for bit at GOMAXPROCS 1, 2 and 4, with
// the assembly kernels and with the generic loops, on shapes aimed at each
// kernel's cut points: rows of 2·diaTileRows + 3 (a short last tile), rows
// and cols unequal both ways, DIA diagonals starting and ending mid-tile,
// segments shorter than the assembly kernel's 8 lanes, long rows among short
// ones past MinParallelWork, where a row cut between workers would show,
// SELL slices of distinct widths, a power law whose SELL windows are wider
// than the first rung, and one dense row over mostly empty ones, where a
// weighted range holds a single row.
// The generic DIA body must also equal the untiled diagonal-major loop.
func TestSpMVParallelBitIdenticalToSerial(t *testing.T) {
	const rows = 2*diaTileRows + 3
	// -2500 starts mid-tile, 3000 ends mid-tile, the two outermost hold a
	// handful of entries each.
	offsets := []int{-(rows - 5), -2500, -3, -1, 0, 1, 5, 3000, 3994}
	shapes := []parallelShape{
		bandShape(t, rows, rows, offsets),
		bandShape(t, rows, 4000, offsets),
		bandShape(t, rows, 4200, offsets),
		longRowsShape(t, rows),
		staircaseShape(t, 200),
		{"powerlaw", powerLawCSR(t, 16384)},
		skewedShape(t, rand.New(rand.NewSource(3)), 6000),
	}
	variants := []bool{false}
	if HasVectorKernels() {
		variants = append(variants, true)
	}
	for _, s := range shapes {
		sr, sc := s.a.Dims()
		x := make([]float64, sc)
		for i := range x {
			x[i] = math.Sqrt(float64(i%23+1)) * float64(1-2*(i%3&1))
		}
		covered := map[Format]bool{}
		for _, f := range Implemented {
			if !CanConvert(s.a, f, DefaultLimits) {
				continue
			}
			m, err := ConvertFromCSR(s.a, f, DefaultLimits)
			if err != nil {
				t.Fatalf("%s: convert to %v: %v", s.name, f, err)
			}
			covered[f] = true
			for _, vec := range variants {
				prev := ForceGenericKernels(!vec)
				serial := make([]float64, sr)
				m.SpMV(serial, x)
				if d, ok := m.(*DIA); ok && !vec {
					ref := make([]float64, sr)
					diaSpMVDiagonalMajor(d, ref, x)
					if err := sameBits(ref, serial); err != nil {
						t.Errorf("%s DIA generic vs diagonal-major loop: %v", s.name, err)
					}
				}
				for _, procs := range []int{1, 2, 4} {
					old := runtime.GOMAXPROCS(procs)
					par := make([]float64, sr)
					for i := range par {
						par[i] = math.NaN()
					}
					m.SpMVParallel(par, x)
					runtime.GOMAXPROCS(old)
					if err := sameBits(serial, par); err != nil {
						t.Errorf("%s %v vec=%v procs=%d: parallel vs serial: %v", s.name, f, vec, procs, err)
					}
				}
				ForceGenericKernels(prev)
			}
		}
		want := []Format{FmtCSR, FmtSELL}
		if s.name != "long-rows" && s.name != "skewed" && s.name != "powerlaw" {
			want = append(want, FmtDIA)
		}
		for _, f := range want {
			if !covered[f] {
				t.Errorf("%s: %v refused the shape it is here to test", s.name, f)
			}
		}
	}
}

// sameBits reports the first entry where got's bits differ from want's.
func sameBits(want, got []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("y[%d] = %.17g, want bit-identical %.17g", i, got[i], want[i])
		}
	}
	return nil
}
