package sparse

import (
	"math/rand"
	"testing"
)

func TestSpMMMatchesRepeatedSpMV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randCSR(t, rng, 120, 90, 0.08)
	const k = 5
	x := randVec(rng, 90*k)
	y := make([]float64, 120*k)
	a.SpMM(y, x, k)
	// Reference: k column-extracted SpMVs.
	xc := make([]float64, 90)
	yc := make([]float64, 120)
	for c := 0; c < k; c++ {
		for j := 0; j < 90; j++ {
			xc[j] = x[j*k+c]
		}
		a.SpMV(yc, xc)
		for i := 0; i < 120; i++ {
			if d := y[i*k+c] - yc[i]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("column %d row %d: %g vs %g", c, i, y[i*k+c], yc[i])
			}
		}
	}
}

func TestSpMMParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randCSR(t, rng, 500, 400, 0.05)
	const k = 4
	x := randVec(rng, 400*k)
	want := make([]float64, 500*k)
	a.SpMM(want, x, k)
	got := make([]float64, 500*k)
	a.SpMMParallel(got, x, k)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestSpMMCrossFormat checks the dispatcher's column fallback on every
// non-CSR format against the blocked CSR kernel, serial and parallel, at a
// couple of block widths.
func TestSpMMCrossFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []*CSR{
		randCSR(t, rng, 300, 250, 0.04),
		randCSR(t, rng, 257, 257, 0.02), // odd dims: exercises SELL edge clamps
	}
	for ci, a := range cases {
		rows, cols := a.Dims()
		for _, k := range []int{1, 3, 8} {
			x := randVec(rng, cols*k)
			want := make([]float64, rows*k)
			a.SpMM(want, x, k)
			for _, f := range Implemented {
				if f == FmtCSR {
					continue
				}
				m, err := ConvertFromCSR(a, f, DefaultLimits)
				if err != nil {
					continue // format inapplicable to this structure
				}
				got := make([]float64, rows*k)
				SpMM(m, got, x, k)
				for i := range want {
					if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
						t.Fatalf("case %d %s k=%d serial: element %d: %g vs %g", ci, f, k, i, got[i], want[i])
					}
				}
				gotPar := make([]float64, rows*k)
				SpMMParallel(m, gotPar, x, k)
				for i := range got {
					if gotPar[i] != got[i] {
						t.Fatalf("case %d %s k=%d parallel diverges at %d: %g vs %g", ci, f, k, i, gotPar[i], got[i])
					}
				}
			}
		}
	}
}

func TestSpMMValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randCSR(t, rng, 10, 8, 0.3)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("k=0", func() { a.SpMM(make([]float64, 0), make([]float64, 0), 0) })
	mustPanic("short y", func() { a.SpMM(make([]float64, 10), make([]float64, 16), 2) })
	mustPanic("short x", func() { a.SpMM(make([]float64, 20), make([]float64, 15), 2) })
}
