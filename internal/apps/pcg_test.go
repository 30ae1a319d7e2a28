package apps

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// spdCatalog is the SPD systems CG runs on: stencils, a band, random
// scatter made SPD and a badly scaled variant, from below the vector
// layer's parallel threshold to past it.
func spdCatalog(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	must := func(a *sparse.CSR, err error) *sparse.CSR {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	scaled := must(matgen.MakeSPD(must(matgen.Random(900, 900, 6, rng)))).Clone()
	for i := 0; i < 900; i++ {
		for k := scaled.Ptr[i]; k < scaled.Ptr[i+1]; k++ {
			scaled.Data[k] *= float64(1+i%5) * float64(1+int(scaled.Col[k])%5)
		}
	}
	return map[string]*sparse.CSR{
		"stencil2d-30":  must(matgen.Stencil2D(30)),
		"stencil2d-265": must(matgen.Stencil2D(265)),
		"stencil3d-12":  must(matgen.Stencil3D(12)),
		"banded-spd":    must(matgen.MakeSPD(must(matgen.Banded(3000, 4, rng)))),
		"random-spd":    must(matgen.MakeSPD(must(matgen.Random(2000, 2000, 5, rng)))),
		"scaled-spd":    scaled,
	}
}

// TestPCGMatchesCGWithIdentity: CG is the PCG body with no preconditioner
// (M = I), so CG and PCG(nil) return the same bits — iterate, progress
// trace, residual, iteration and SpMV counts — on every SPD system at
// GOMAXPROCS 1 and 4.
func TestPCGMatchesCGWithIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	opt := SolveOptions{Tol: 1e-8, MaxIters: 60}
	for name, a := range spdCatalog(t) {
		n, _ := a.Dims()
		b := make([]float64, n)
		for i := range b {
			b[i] = 1 + float64(i%7)/7
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			cg, err := CG(Par(a), b, opt, nil)
			if err != nil {
				t.Fatalf("%s: CG: %v", name, err)
			}
			pcg, err := PCG(Par(a), nil, b, opt, nil)
			if err != nil {
				t.Fatalf("%s: PCG: %v", name, err)
			}
			if !sameBits(cg.X, pcg.X) || !sameBits(cg.Progress, pcg.Progress) ||
				math.Float64bits(cg.Residual) != math.Float64bits(pcg.Residual) ||
				cg.Iterations != pcg.Iterations || cg.SpMVs != pcg.SpMVs || cg.Converged != pcg.Converged {
				t.Errorf("%s at GOMAXPROCS=%d: CG (%d iterations, %d SpMVs, residual %g) and PCG(nil) (%d, %d, %g) differ",
					name, procs, cg.Iterations, cg.SpMVs, cg.Residual, pcg.Iterations, pcg.SpMVs, pcg.Residual)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestPCGJacobiAcceleratesScaledSystem(t *testing.T) {
	// A badly row-scaled SPD system: Jacobi preconditioning should cut the
	// iteration count substantially versus plain CG.
	a, b, _ := spdSystem(t, 300, 31)
	n, _ := a.Dims()
	// Scale row/col i by s_i, keeping symmetry: A' = D A D.
	scaled := a.Clone()
	scale := make([]float64, n)
	for i := range scale {
		scale[i] = 1 + 99*float64(i%7)/6 // 1..100
	}
	for i := 0; i < n; i++ {
		for k := scaled.Ptr[i]; k < scaled.Ptr[i+1]; k++ {
			scaled.Data[k] *= scale[i] * scale[scaled.Col[k]]
		}
	}
	opt := DefaultSolveOptions()
	opt.MaxIters = 100000
	plain, err := CG(Ser(scaled), b, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := NewJacobiPreconditioner(scaled.Diag())
	if err != nil {
		t.Fatal(err)
	}
	pcg, err := PCG(Ser(scaled), pre, b, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !pcg.Converged {
		t.Fatalf("convergence: CG %v (%d), PCG %v (%d)", plain.Converged, plain.Iterations, pcg.Converged, pcg.Iterations)
	}
	if pcg.Iterations >= plain.Iterations {
		t.Errorf("Jacobi PCG took %d iterations, plain CG %d: no acceleration", pcg.Iterations, plain.Iterations)
	}
	checkSolution(t, scaled, pcg.X, b, 1e-6, "PCG/Jacobi")
}

func TestPCGNilPreconditionerDefaults(t *testing.T) {
	a, b, _ := spdSystem(t, 80, 32)
	res, err := PCG(Ser(a), nil, b, DefaultSolveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("nil-preconditioner PCG did not converge")
	}
}

func TestJacobiPreconditionerValidation(t *testing.T) {
	if _, err := NewJacobiPreconditioner([]float64{1, 0, 2}); err == nil {
		t.Error("zero diagonal accepted")
	}
}

func TestPCGZeroRHS(t *testing.T) {
	a, _, _ := spdSystem(t, 40, 33)
	res, err := PCG(Ser(a), nil, make([]float64, 40), DefaultSolveOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("zero rhs not immediately converged")
	}
}
