//go:build !race

package apps

import "testing"

// Allocation counts are taken without the race detector, as in
// internal/wire and internal/cluster: its instrumentation allocates.

// TestSolversAllocateNothingPerIteration: 70 and 120 iterations leave
// Result.Progress at the same capacity (128), so the two runs must allocate
// exactly the same number of objects — anything else is a per-iteration
// allocation. 60² unknowns keeps the passes inline; through the team a
// dispatch allocates its job inside internal/parallel, as a parallel SpMV
// does.
func TestSolversAllocateNothingPerIteration(t *testing.T) {
	short, long := sevenSolvers(t, 60, 70), sevenSolvers(t, 60, 120)
	for name := range short {
		short[name](Ser) // warm: the first solve builds the operand's lazy state
		a := testing.AllocsPerRun(3, func() { short[name](Ser) })
		b := testing.AllocsPerRun(3, func() { long[name](Ser) })
		if a != b {
			t.Errorf("%s: %v allocations over 70 iterations, %v over 120", name, a, b)
		}
	}
}
