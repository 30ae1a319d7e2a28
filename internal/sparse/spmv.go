package sparse

import (
	"fmt"

	"repro/internal/parallel"
)

// kernel is the SpMV contract every implemented format meets, and spmv the
// one driver that runs it. The serial product is the range body over all
// units, the parallel one the same body over disjoint ranges, so the two
// agree bit for bit by construction.
type kernel interface {
	Dims() (rows, cols int)
	// plan returns the number of units the body runs over and the stored
	// slots, padding included, one product reads: the gate's measure of work.
	plan() (units, slots int)
	// partition cuts the units into ranges for the team, nil when they cost
	// the same and split evenly. Only the parallel branch calls it.
	partition() [][2]int
	// spmvRange overwrites every entry of y that units [lo, hi) own.
	spmvRange(y, x []float64, lo, hi int)
}

// StoredSlots returns the slots m stores, padding included: the slots one
// product reads, which its kernel's plan returns. It is what a converted
// matrix holds in memory in the unit of nonzeros, and so what a budget
// counted in stored nonzeros charges it. A matrix of no built format is
// charged its NNZ.
func StoredSlots(m Matrix) int {
	if k, ok := m.(kernel); ok {
		_, slots := k.plan()
		return slots
	}
	return m.NNZ()
}

// spmv is every format's SpMV (par false) and SpMVParallel (par true).
func spmv(k kernel, y, x []float64, par bool) {
	rows, cols := k.Dims()
	checkSpMVDims(rows, cols, y, x)
	units, slots := k.plan()
	if !onTeam(par, slots) {
		k.spmvRange(y, x, 0, units)
		return
	}
	spmvTeam(k, y, x, units)
}

// spmvTeam is spmv's parallel branch, a function of its own so that the
// closure and what it captures exist on this branch only: the serial product
// allocates nothing.
func spmvTeam(k kernel, y, x []float64, units int) {
	body := func(lo, hi int) { k.spmvRange(y, x, lo, hi) }
	if parts := k.partition(); parts != nil {
		parallel.ForRanges(parts, body)
		return
	}
	parallel.ForThreshold(units, 1, body)
}

// onTeam is the package's one serial-or-parallel gate for products: a
// parallel entry point goes to the team once it reads
// parallel.MinParallelWork stored slots. One range or one worker then runs
// inline inside the team's own gate.
func onTeam(par bool, slots int) bool {
	return par && slots >= parallel.MinParallelWork
}

// checkSpMVDims panics unless len(y) == rows and len(x) == cols.
func checkSpMVDims(rows, cols int, y, x []float64) {
	if len(y) != rows {
		panic(fmt.Sprintf("sparse: SpMV output length %d, want %d rows", len(y), rows))
	}
	if len(x) != cols {
		panic(fmt.Sprintf("sparse: SpMV input length %d, want %d cols", len(x), cols))
	}
}
