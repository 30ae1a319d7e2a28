package sparse

import (
	"math/rand"
	"testing"
)

func TestSELLStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randCSR(t, rng, 200, 150, 0.05)
	m, err := NewSELLFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	wantSlices := (200 + SELLC - 1) / SELLC
	if m.NumSlices() != wantSlices {
		t.Errorf("NumSlices = %d, want %d", m.NumSlices(), wantSlices)
	}
	if m.NNZ() != a.NNZ() {
		t.Errorf("NNZ = %d, want %d", m.NNZ(), a.NNZ())
	}
}

func TestSELLBoundsPaddingOnSkewedRows(t *testing.T) {
	// One dense row among short rows: ELL pads every row to the max, SELL
	// only pads the slice holding the dense row.
	rows, cols := 512, 512
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
	m, err := NewSELLFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	// ELL fill would be rows*cols/nnz ~ 256x; SELL pads only one slice.
	if fr := m.FillRatio(); fr > 5 {
		t.Errorf("SELL fill ratio %.1f on skewed matrix, want < 5", fr)
	}
	// And SpMV still matches.
	rng := rand.New(rand.NewSource(2))
	x := randVec(rng, cols)
	want := make([]float64, rows)
	a.SpMV(want, x)
	got := make([]float64, rows)
	m.SpMV(got, x)
	vecsClose(t, got, want, 1e-12, "SELL skewed")
	got2 := make([]float64, rows)
	m.SpMVParallel(got2, x)
	vecsClose(t, got2, want, 1e-12, "SELL skewed parallel")
}

func TestSELLWindowSortingIsLocal(t *testing.T) {
	// The permutation must only move rows within sigma windows (that is
	// the "sigma" in SELL-C-sigma: bounded reordering), and validate checks
	// exactly that and the descending lengths inside each window.
	rng := rand.New(rand.NewSource(3))
	a := randCSR(t, rng, 300, 300, 0.03)
	m, err := NewSELLFromCSR(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sigma != sellSigmas[0] {
		t.Errorf("sigma %d on a 300-row matrix, want %d", m.Sigma, sellSigmas[0])
	}
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	m.Perm[0], m.Perm[len(m.Perm)-1] = m.Perm[len(m.Perm)-1], m.Perm[0]
	if err := m.validate(); err == nil {
		t.Error("validate accepted a row moved across sigma windows")
	}
}

func TestSELLRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 200} {
		a := randCSR(t, rng, n, n, 0.2)
		m, err := NewSELLFromCSR(a)
		if err != nil {
			t.Fatal(err)
		}
		back, err := m.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		eq, err := EqualValues(a, back, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("n=%d: SELL round trip changed values", n)
		}
	}
}
