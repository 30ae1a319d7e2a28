package matgen

import (
	"fmt"
	"math/rand"

	"repro/internal/sparse"
)

// The classic web-graph parameterization of the recursive-matrix (R-MAT /
// Kronecker) graph generator of Chakrabarti, Zhan and Faloutsos: the four
// quadrant probabilities sum to 1, and a symmetric per-level noise on them
// avoids the perfectly self-similar degree staircase.
const (
	rmatEdgesPerVtx     = 16
	rmatA, rmatB, rmatC = 0.57, 0.19, 0.19 // D = 0.05 takes the rest
	rmatNoise           = 0.05
)

// RMAT generates a directed 2^scale-vertex R-MAT graph as a CSR adjacency
// matrix with unit weights. Duplicate edges collapse (so the realized edge
// count is slightly below the target); self-loops are kept, as web graphs
// have them.
func RMAT(scale int, rng *rand.Rand) (*sparse.CSR, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("matgen: RMAT scale %d outside [1, 30]", scale)
	}
	n := 1 << scale
	edges := n * rmatEdgesPerVtx
	ri := make([]int32, 0, edges)
	ci := make([]int32, 0, edges)
	vv := make([]float64, 0, edges)
	for e := 0; e < edges; e++ {
		r, c := 0, 0
		for level := 0; level < scale; level++ {
			// Symmetric perturbation keeps the expected sums intact.
			a, b, cc := rmatA, rmatB, rmatC
			a += rmatNoise * (rng.Float64() - 0.5)
			b += rmatNoise * (rng.Float64() - 0.5)
			cc += rmatNoise * (rng.Float64() - 0.5)
			u := rng.Float64()
			half := n >> (level + 1)
			switch {
			case u < a:
				// top-left: nothing to add
			case u < a+b:
				c += half
			case u < a+b+cc:
				r += half
			default:
				r += half
				c += half
			}
		}
		ri = append(ri, int32(r))
		ci = append(ci, int32(c))
		vv = append(vv, 1)
	}
	csr, err := sparse.CSRFromTriplets(n, n, ri, ci, vv)
	if err != nil {
		return nil, err
	}
	// Duplicate edges summed to weights > 1; clamp back to the unweighted
	// adjacency the PageRank experiments expect.
	for k := range csr.Data {
		csr.Data[k] = 1
	}
	return csr, nil
}
