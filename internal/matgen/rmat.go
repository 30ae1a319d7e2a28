package matgen

import (
	"fmt"
	"math/rand"

	"repro/internal/sparse"
)

// RMATConfig parameterizes the recursive-matrix (R-MAT / Kronecker) graph
// generator of Chakrabarti, Zhan and Faloutsos. The four quadrant
// probabilities (A, B, C, D) must sum to ~1; the classic web-graph setting
// is (0.57, 0.19, 0.19, 0.05).
type RMATConfig struct {
	Scale       int     // 2^Scale vertices
	EdgesPerVtx int     // target edges per vertex
	A, B, C, D  float64 // quadrant probabilities
	// NoiseAtEachLevel perturbs the probabilities per recursion level,
	// which avoids the perfectly self-similar degree staircase.
	Noise float64
}

// DefaultRMATConfig is the classic web-graph parameterization.
func DefaultRMATConfig(scale int) RMATConfig {
	return RMATConfig{
		Scale: scale, EdgesPerVtx: 16,
		A: 0.57, B: 0.19, C: 0.19, D: 0.05,
		Noise: 0.05,
	}
}

// RMAT generates a directed R-MAT graph as a CSR adjacency matrix with
// unit weights. Duplicate edges collapse (so the realized edge count is
// slightly below the target); self-loops are kept, as web graphs have them.
func RMAT(cfg RMATConfig, rng *rand.Rand) (*sparse.CSR, error) {
	if cfg.Scale < 1 || cfg.Scale > 30 {
		return nil, fmt.Errorf("matgen: RMAT scale %d outside [1, 30]", cfg.Scale)
	}
	if cfg.EdgesPerVtx < 1 {
		return nil, fmt.Errorf("matgen: RMAT edges-per-vertex %d", cfg.EdgesPerVtx)
	}
	sum := cfg.A + cfg.B + cfg.C + cfg.D
	if sum < 0.99 || sum > 1.01 {
		return nil, fmt.Errorf("matgen: RMAT probabilities sum to %g", sum)
	}
	n := 1 << cfg.Scale
	edges := n * cfg.EdgesPerVtx
	ri := make([]int32, 0, edges)
	ci := make([]int32, 0, edges)
	vv := make([]float64, 0, edges)
	for e := 0; e < edges; e++ {
		r, c := 0, 0
		for level := 0; level < cfg.Scale; level++ {
			a, b, cc := cfg.A, cfg.B, cfg.C
			if cfg.Noise > 0 {
				// Symmetric perturbation keeps the expected sums intact.
				a += cfg.Noise * (rng.Float64() - 0.5)
				b += cfg.Noise * (rng.Float64() - 0.5)
				cc += cfg.Noise * (rng.Float64() - 0.5)
			}
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
