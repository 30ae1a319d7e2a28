package apps

import (
	"math/rand"
	"testing"

	"repro/internal/matgen"
)

// countingOp wraps an Operator and counts SpMV invocations — the ground
// truth the solvers' Result.SpMVs attribution is checked against.
type countingOp struct {
	Operator
	calls int
}

func (c *countingOp) SpMV(y, x []float64) {
	c.calls++
	c.Operator.SpMV(y, x)
}

// TestResultSpMVAttribution checks that every solver reports exactly the
// SpMV calls it issued (counted at the operator), and that the per-iteration
// arithmetic matches each algorithm: CG/Jacobi/PCG/PageRank cost 1 SpMV per
// iteration, BiCGSTAB costs 2 (1 when the final iteration exits at the
// mid-loop check), GMRES costs 1 per Arnoldi step plus 1 residual per
// restart cycle.
func TestResultSpMVAttribution(t *testing.T) {
	a, b, _ := spdSystem(t, 200, 11)
	opt := DefaultSolveOptions()
	opt.Tol = 1e-10

	t.Run("cg", func(t *testing.T) {
		op := &countingOp{Operator: Ser(a)}
		res, err := CG(op, b, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.SpMVs != op.calls {
			t.Errorf("reported %d SpMVs, operator saw %d", res.SpMVs, op.calls)
		}
		if res.SpMVs != res.Iterations {
			t.Errorf("CG: %d SpMVs over %d iterations, want 1/iter", res.SpMVs, res.Iterations)
		}
	})

	t.Run("pcg", func(t *testing.T) {
		op := &countingOp{Operator: Ser(a)}
		res, err := PCG(op, nil, b, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.SpMVs != op.calls || res.SpMVs != res.Iterations {
			t.Errorf("PCG: reported %d, counted %d, iterations %d", res.SpMVs, op.calls, res.Iterations)
		}
	})

	t.Run("bicgstab", func(t *testing.T) {
		op := &countingOp{Operator: Ser(a)}
		res, err := BiCGSTAB(op, b, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.SpMVs != op.calls {
			t.Errorf("reported %d SpMVs, operator saw %d", res.SpMVs, op.calls)
		}
		if res.SpMVs != 2*res.Iterations && res.SpMVs != 2*res.Iterations-1 {
			t.Errorf("BiCGSTAB: %d SpMVs over %d iterations, want 2/iter (last may be 1)",
				res.SpMVs, res.Iterations)
		}
	})

	t.Run("gmres", func(t *testing.T) {
		gopt := opt
		gopt.Restart = 20 // force several restart cycles
		op := &countingOp{Operator: Ser(a)}
		res, err := GMRES(op, b, gopt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.SpMVs != op.calls {
			t.Errorf("reported %d SpMVs, operator saw %d", res.SpMVs, op.calls)
		}
		// 1 per Arnoldi step + 1 residual per started cycle.
		cycles := (res.Iterations + gopt.Restart - 1) / gopt.Restart
		if res.SpMVs != res.Iterations+cycles {
			t.Errorf("GMRES: %d SpMVs over %d iterations in %d cycles, want %d",
				res.SpMVs, res.Iterations, cycles, res.Iterations+cycles)
		}
		if res.SpMVs <= res.Iterations {
			t.Error("GMRES must issue more SpMVs than Arnoldi steps (restart residuals)")
		}
	})

	t.Run("jacobi", func(t *testing.T) {
		n, _ := a.Dims()
		diag := make([]float64, n)
		for i := 0; i < n; i++ {
			diag[i] = a.At(i, i)
		}
		op := &countingOp{Operator: Ser(a)}
		res, err := Jacobi(op, diag, b, 1.0, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.SpMVs != op.calls || res.SpMVs != res.Iterations {
			t.Errorf("Jacobi: reported %d, counted %d, iterations %d", res.SpMVs, op.calls, res.Iterations)
		}
	})

	t.Run("pagerank", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		g, err := matgen.Random(300, 300, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		p, dangling, err := BuildTransition(g)
		if err != nil {
			t.Fatal(err)
		}
		op := &countingOp{Operator: Ser(p)}
		res, err := PageRank(op, dangling, DefaultPageRankOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.SpMVs != op.calls || res.SpMVs != res.Iterations {
			t.Errorf("PageRank: reported %d, counted %d, iterations %d", res.SpMVs, op.calls, res.Iterations)
		}
	})

	t.Run("power", func(t *testing.T) {
		op := &countingOp{Operator: Ser(a)}
		res, err := PowerMethod(op, DefaultSolveOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.SpMVs != op.calls || res.SpMVs != res.Iterations {
			t.Errorf("power: reported %d, counted %d, iterations %d", res.SpMVs, op.calls, res.Iterations)
		}
	})
}
